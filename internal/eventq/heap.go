// Package eventq provides the discrete-event substrate of the paper's
// couplings: an indexed binary min-heap keyed by float64 priorities
// (event times) with O(log n) insert, pop, decrease-key, and remove. The
// index allows decrease-key, which the couplings need (a node's pending
// pull event moves earlier when a new neighbor becomes informed).
package eventq

// Item is an entry in the queue: an opaque integer identifier with a
// priority (typically a simulation time).
type Item struct {
	ID       int32
	Priority float64
}

// Queue is an indexed min-heap over items with distinct IDs in a bounded
// range [0, maxID). The zero value is not usable; construct with New.
type Queue struct {
	heap []Item
	// pos[id] is the heap index of the item with that ID, or -1.
	pos []int32
}

// New returns an empty queue admitting IDs in [0, maxID).
func New(maxID int) *Queue {
	pos := make([]int32, maxID)
	for i := range pos {
		pos[i] = -1
	}
	return &Queue{pos: pos}
}

// Contains reports whether an item with the given ID is queued.
func (q *Queue) Contains(id int32) bool { return q.pos[id] >= 0 }

// Push inserts an item. It panics if the ID is already queued.
func (q *Queue) Push(id int32, priority float64) {
	if q.pos[id] >= 0 {
		panic("eventq: Push of duplicate ID")
	}
	q.heap = append(q.heap, Item{ID: id, Priority: priority})
	q.pos[id] = int32(len(q.heap) - 1)
	q.up(len(q.heap) - 1)
}

// DecreaseTo lowers the item's priority to the given value if the item is
// absent or currently has a higher priority; otherwise it is a no-op.
func (q *Queue) DecreaseTo(id int32, priority float64) {
	i := q.pos[id]
	if i < 0 {
		q.Push(id, priority)
		return
	}
	if priority < q.heap[i].Priority {
		q.heap[i].Priority = priority
		q.up(int(i))
	}
}

// Min returns the item with the smallest priority without removing it.
// The second result is false if the queue is empty.
func (q *Queue) Min() (Item, bool) {
	if len(q.heap) == 0 {
		return Item{}, false
	}
	return q.heap[0], true
}

// Pop removes and returns the item with the smallest priority.
// The second result is false if the queue is empty.
func (q *Queue) Pop() (Item, bool) {
	if len(q.heap) == 0 {
		return Item{}, false
	}
	top := q.heap[0]
	q.swap(0, len(q.heap)-1)
	q.heap = q.heap[:len(q.heap)-1]
	q.pos[top.ID] = -1
	if len(q.heap) > 0 {
		q.down(0)
	}
	return top, true
}

// Remove deletes the item with the given ID if present, reporting whether
// it was present.
func (q *Queue) Remove(id int32) bool {
	i := q.pos[id]
	if i < 0 {
		return false
	}
	last := len(q.heap) - 1
	q.swap(int(i), last)
	q.heap = q.heap[:last]
	q.pos[id] = -1
	if int(i) < last {
		q.down(int(i))
		q.up(int(i))
	}
	return true
}

func (q *Queue) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.pos[q.heap[i].ID] = int32(i)
	q.pos[q.heap[j].ID] = int32(j)
}

func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if q.heap[parent].Priority <= q.heap[i].Priority {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *Queue) down(i int) {
	n := len(q.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && q.heap[right].Priority < q.heap[left].Priority {
			smallest = right
		}
		if q.heap[i].Priority <= q.heap[smallest].Priority {
			return
		}
		q.swap(i, smallest)
		i = smallest
	}
}
