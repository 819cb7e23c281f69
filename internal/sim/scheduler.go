package sim

import "fmt"

// Scheduler is the pending-event queue behind a Sim. Implementations must
// dispatch events in strictly increasing (when, seq) order — the same total
// order for every implementation — so a run's event sequence, and therefore
// every trace byte, is identical no matter which scheduler executes it.
//
// The contract is narrow on purpose:
//
//   - Push is called only with events not currently queued.
//   - Remove is called only with events currently queued (Cancel removes
//     eagerly, so the queue never holds canceled events).
//   - Move is called only with events currently queued. The event stays
//     queued and takes the given (when, seq) as its key: the queue
//     dispatches it exactly where Remove followed by Push with that key
//     would have, so the dispatch order stays the strict (when, seq)
//     total order.
//   - Pop returns the minimum event under (when, seq) and marks it
//     not-queued; it returns nil when empty.
//   - PeekWhen reports the minimum timestamp without dequeuing.
//
// Implementations own the Event's pos/bucket/qwhen/qseq bookkeeping
// fields and the queued flag; nothing else reads them.
//
// Both implementations apply a Move to a later key lazily. The event stays
// filed under its old, earlier key (qwhen, qseq), and only its key
// changes; when it reaches the head of the queue it is re-filed under its
// key instead of being returned. Every event is filed at or before its
// key, so a head filed under its own key is the true minimum, and nothing
// dispatches early. A timer re-armed later many times before it fires —
// a flow completion re-rated by every solve — then costs two stores per
// re-arm, plus one re-file whenever it reaches the head still filed
// early. A Move to an earlier key is applied at once.
type Scheduler interface {
	// Name identifies the implementation ("heap", "calendar").
	Name() string
	// Push inserts an event. e.when and e.seq are already set.
	Push(e *Event)
	// Pop removes and returns the minimum event, or nil when empty.
	Pop() *Event
	// PeekWhen returns the minimum timestamp; ok is false when empty.
	PeekWhen() (when Time, ok bool)
	// Remove deletes a queued event (precondition: e is queued).
	Remove(e *Event)
	// Move re-keys a queued event to (when, seq) (precondition: e is
	// queued).
	Move(e *Event, when Time, seq uint64)
	// Len returns the number of queued events.
	Len() int
}

// NewScheduler returns a scheduler by name: "calendar" (or "") for the
// calendar queue, "heap" for the binary heap. Unknown names error.
func NewScheduler(name string) (Scheduler, error) {
	switch name {
	case "", "calendar":
		return NewCalendarScheduler(), nil
	case "heap":
		return NewHeapScheduler(), nil
	default:
		return nil, fmt.Errorf("sim: unknown scheduler %q (want heap or calendar)", name)
	}
}

// eventLess is the dispatch order shared by every scheduler, over the keys
// events are filed under: time first, scheduling sequence as the
// deterministic FIFO tie-break.
func eventLess(a, b *Event) bool {
	if a.qwhen != b.qwhen {
		return a.qwhen < b.qwhen
	}
	return a.qseq < b.qseq
}

// fileAtKey files e under its own key.
func (e *Event) fileAtKey() { e.qwhen, e.qseq = e.when, e.seq }

// filedAtKey reports whether e is filed under its own key, not an earlier
// one left by a lazily applied Move.
func (e *Event) filedAtKey() bool { return e.qwhen == e.when && e.qseq == e.seq }

// movesEarlier reports whether re-keying e to (when, seq) puts it before
// the key it is filed under — the one kind of Move applied at once.
func movesEarlier(e *Event, when Time, seq uint64) bool {
	return when < e.qwhen || (when == e.qwhen && seq < e.qseq)
}

// heapScheduler is the classic binary min-heap: O(log n) push/pop, simple
// and cache-friendly at small queue depths. It is the reference
// implementation the calendar queue is differentially tested against.
type heapScheduler struct {
	h []*Event
}

// NewHeapScheduler returns an empty binary-heap scheduler.
func NewHeapScheduler() Scheduler { return &heapScheduler{} }

func (s *heapScheduler) Name() string { return "heap" }

func (s *heapScheduler) Len() int { return len(s.h) }

func (s *heapScheduler) PeekWhen() (Time, bool) {
	if len(s.h) == 0 {
		return 0, false
	}
	s.settleTop()
	return s.h[0].when, true
}

// settleTop re-files lazily moved events at the top until the top is
// filed under its own key (precondition: the heap is not empty).
func (s *heapScheduler) settleTop() {
	for e := s.h[0]; !e.filedAtKey(); e = s.h[0] {
		e.fileAtKey()
		s.down(0)
	}
}

func (s *heapScheduler) Push(e *Event) {
	e.fileAtKey()
	e.queued = true
	e.pos = int32(len(s.h))
	s.h = append(s.h, e)
	s.up(len(s.h) - 1)
}

func (s *heapScheduler) Pop() *Event {
	n := len(s.h)
	if n == 0 {
		return nil
	}
	s.settleTop()
	e := s.h[0]
	last := s.h[n-1]
	s.h[n-1] = nil
	s.h = s.h[:n-1]
	if n > 1 {
		s.h[0] = last
		last.pos = 0
		s.down(0)
	}
	e.queued = false
	e.pos = -1
	return e
}

func (s *heapScheduler) Remove(e *Event) {
	i := int(e.pos)
	n := len(s.h) - 1
	last := s.h[n]
	s.h[n] = nil
	s.h = s.h[:n]
	if i < n {
		s.h[i] = last
		last.pos = int32(i)
		if !s.up(i) {
			s.down(i)
		}
	}
	e.queued = false
	e.pos = -1
}

func (s *heapScheduler) Move(e *Event, when Time, seq uint64) {
	earlier := movesEarlier(e, when, seq)
	e.when, e.seq = when, seq
	if earlier {
		e.fileAtKey()
		s.up(int(e.pos))
	}
}

// up sifts index i toward the root; reports whether it moved.
func (s *heapScheduler) up(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(s.h[i], s.h[parent]) {
			break
		}
		s.h[i], s.h[parent] = s.h[parent], s.h[i]
		s.h[i].pos = int32(i)
		s.h[parent].pos = int32(parent)
		i = parent
		moved = true
	}
	return moved
}

// down sifts index i toward the leaves.
func (s *heapScheduler) down(i int) {
	n := len(s.h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		min := l
		if r := l + 1; r < n && eventLess(s.h[r], s.h[l]) {
			min = r
		}
		if !eventLess(s.h[min], s.h[i]) {
			return
		}
		s.h[i], s.h[min] = s.h[min], s.h[i]
		s.h[i].pos = int32(i)
		s.h[min].pos = int32(min)
		i = min
	}
}
