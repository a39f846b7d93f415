package coupling

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"rumor/internal/xrand"
)

func TestEventQueuePushPopOrdered(t *testing.T) {
	q := newEventQueue(10)
	prios := []float64{5, 1, 4, 2, 3}
	for i, p := range prios {
		q.push(int32(i), p)
	}
	want := append([]float64(nil), prios...)
	sort.Float64s(want)
	for _, w := range want {
		it, ok := q.pop()
		if !ok {
			t.Fatal("Pop on non-empty queue returned false")
		}
		if it.Priority != w {
			t.Fatalf("Pop priority = %v, want %v", it.Priority, w)
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("Pop on empty queue returned true")
	}
}

func TestEventQueueMinDoesNotRemove(t *testing.T) {
	q := newEventQueue(4)
	q.push(0, 3)
	q.push(1, 1)
	it, ok := q.min()
	if !ok || it.ID != 1 || it.Priority != 1 {
		t.Fatalf("Min = %+v, %v", it, ok)
	}
	if again, _ := q.pop(); again != it {
		t.Fatalf("Min removed an item: Pop = %+v after Min = %+v", again, it)
	}
}

func TestEventQueueMinEmpty(t *testing.T) {
	q := newEventQueue(1)
	if _, ok := q.min(); ok {
		t.Fatal("Min on empty queue returned true")
	}
}

func TestEventQueueDecreaseTo(t *testing.T) {
	q := newEventQueue(4)
	priority := func() float64 {
		it, _ := q.min()
		return it.Priority
	}
	q.decreaseTo(0, 10) // absent: insert
	if !q.contains(0) || priority() != 10 {
		t.Fatal("DecreaseTo did not insert absent item")
	}
	q.decreaseTo(0, 5) // lower: update
	if priority() != 5 {
		t.Fatalf("DecreaseTo did not lower priority: %v", priority())
	}
	q.decreaseTo(0, 8) // higher: no-op
	if priority() != 5 {
		t.Fatalf("DecreaseTo raised priority: %v", priority())
	}
}

func TestEventQueueRemove(t *testing.T) {
	q := newEventQueue(8)
	for i := int32(0); i < 8; i++ {
		q.push(i, float64(8-i))
	}
	if !q.remove(3) {
		t.Fatal("Remove(3) = false for present item")
	}
	if q.remove(3) {
		t.Fatal("Remove(3) = true for absent item")
	}
	seen := map[int32]bool{}
	prev := math.Inf(-1)
	for {
		it, ok := q.pop()
		if !ok {
			break
		}
		if it.Priority < prev {
			t.Fatal("heap order violated after Remove")
		}
		prev = it.Priority
		seen[it.ID] = true
	}
	if len(seen) != 7 || seen[3] {
		t.Fatalf("wrong survivor set after Remove: %v", seen)
	}
}

func TestEventQueuePushDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Push did not panic")
		}
	}()
	q := newEventQueue(2)
	q.push(0, 1)
	q.push(0, 2)
}

func TestEventQueueRandomizedAgainstSort(t *testing.T) {
	rng := xrand.New(42)
	const n = 500
	q := newEventQueue(n)
	prios := make([]float64, n)
	for i := 0; i < n; i++ {
		prios[i] = rng.Float64()
		q.push(int32(i), prios[i])
	}
	// Random decrease-keys.
	for i := 0; i < 200; i++ {
		id := int32(rng.Intn(n))
		p := rng.Float64()
		q.decreaseTo(id, p)
		prios[id] = math.Min(prios[id], p)
	}
	sort.Float64s(prios)
	for i := 0; i < n; i++ {
		it, ok := q.pop()
		if !ok {
			t.Fatal("queue exhausted early")
		}
		if it.Priority != prios[i] {
			t.Fatalf("pop %d: priority %v, want %v", i, it.Priority, prios[i])
		}
	}
}

func TestEventQueueQuickHeapInvariant(t *testing.T) {
	// After arbitrary pushes, popping yields a nondecreasing sequence.
	f := func(raw []float64) bool {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		q := newEventQueue(len(raw))
		for i, p := range raw {
			if math.IsNaN(p) {
				p = 0
			}
			q.push(int32(i), p)
		}
		prev := math.Inf(-1)
		for {
			it, ok := q.pop()
			if !ok {
				break
			}
			if it.Priority < prev {
				return false
			}
			prev = it.Priority
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEventQueuePushPop(b *testing.B) {
	rng := xrand.New(1)
	const n = 1024
	q := newEventQueue(n)
	size := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := int32(i % n)
		if q.remove(id) {
			size--
		}
		q.push(id, rng.Float64())
		if size++; size > n/2 {
			q.pop()
			size--
		}
	}
}
