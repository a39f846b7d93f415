package coupling

// The discrete-event substrate of the upper coupling: an indexed binary
// min-heap keyed by float64 priorities (event times) with O(log n)
// insert, pop, decrease-key, and remove. The index allows decrease-key,
// which the coupling needs (a node's pending pull event moves earlier
// when a new neighbor becomes informed).

// eventItem is an entry in the queue: an opaque integer identifier with a
// priority (a simulation time).
type eventItem struct {
	ID       int32
	Priority float64
}

// eventQueue is an indexed min-heap over items with distinct IDs in a
// bounded range [0, maxID). The zero value is not usable; construct with
// newEventQueue.
type eventQueue struct {
	heap []eventItem
	// pos[id] is the heap index of the item with that ID, or -1.
	pos []int32
}

// newEventQueue returns an empty queue admitting IDs in [0, maxID).
func newEventQueue(maxID int) *eventQueue {
	pos := make([]int32, maxID)
	for i := range pos {
		pos[i] = -1
	}
	return &eventQueue{pos: pos}
}

// contains reports whether an item with the given ID is queued.
func (q *eventQueue) contains(id int32) bool { return q.pos[id] >= 0 }

// push inserts an item. It panics if the ID is already queued.
func (q *eventQueue) push(id int32, priority float64) {
	if q.pos[id] >= 0 {
		panic("coupling: push of duplicate event ID")
	}
	q.heap = append(q.heap, eventItem{ID: id, Priority: priority})
	q.pos[id] = int32(len(q.heap) - 1)
	q.up(len(q.heap) - 1)
}

// decreaseTo lowers the item's priority to the given value if the item is
// absent or currently has a higher priority; otherwise it is a no-op.
func (q *eventQueue) decreaseTo(id int32, priority float64) {
	i := q.pos[id]
	if i < 0 {
		q.push(id, priority)
		return
	}
	if priority < q.heap[i].Priority {
		q.heap[i].Priority = priority
		q.up(int(i))
	}
}

// min returns the item with the smallest priority without removing it.
// The second result is false if the queue is empty.
func (q *eventQueue) min() (eventItem, bool) {
	if len(q.heap) == 0 {
		return eventItem{}, false
	}
	return q.heap[0], true
}

// pop removes and returns the item with the smallest priority.
// The second result is false if the queue is empty.
func (q *eventQueue) pop() (eventItem, bool) {
	if len(q.heap) == 0 {
		return eventItem{}, false
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

// remove deletes the item with the given ID if present, reporting whether
// it was present.
func (q *eventQueue) remove(id int32) bool {
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

func (q *eventQueue) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.pos[q.heap[i].ID] = int32(i)
	q.pos[q.heap[j].ID] = int32(j)
}

func (q *eventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if q.heap[parent].Priority <= q.heap[i].Priority {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *eventQueue) down(i int) {
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
