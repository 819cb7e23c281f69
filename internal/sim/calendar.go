package sim

// Calendar-queue scheduler (Brown 1988): pending events hash into an array
// of "day" buckets by timestamp, each bucket sorted by (when, seq). The
// dequeue cursor walks days in order, so as long as the bucket width tracks
// the typical inter-event gap, push and pop are O(1) amortized — the win
// over the O(log n) heap at the 10k+ pending events a 1024-node run keeps
// in flight.
//
// A day width fitted to one phase of a run goes stale in the next (set-up
// traffic spaced in milliseconds, then a timed phase spaced in
// microseconds piles hundreds of events into each bucket). Inserts
// therefore count how many queued events they shift; when the average
// over a window exceeds calendarMaxShift and the estimated width is off
// by calendarRecalRatio or more, the calendar re-buckets at the same
// bucket count with the fresh width.
//
// Determinism: the calendar dispatches the exact (when, seq) total order —
// a bucket is a sorted list and the cursor scan always finds the globally
// minimal event — so traces are byte-identical to the heap scheduler's.
// Buckets, the cursor and the head cache all work on the key an event is
// filed under (qwhen, qseq); see Scheduler for Moves applied lazily.

// calendarScheduler implements Scheduler with a calendar queue.
type calendarScheduler struct {
	buckets [][]*Event
	mask    int    // len(buckets)-1; bucket count is a power of two
	width   Time   // virtual-time span of one bucket ("day" length)
	n       int    // queued events
	cur     int    // bucket the dequeue cursor is on
	top     Time   // exclusive end of cur's current day window
	min     *Event // cached head; nil = unknown (rescan on next peek)

	// Recalibration window: inserts since the last check and the queued
	// events those inserts shifted.
	inserts int
	shifted int

	whens []Time // scratch for width estimation at resize
}

const (
	calendarMinBuckets = 64
	calendarMaxBuckets = 1 << 18
	// calendarInitWidth is the day length before the first resize
	// calibrates one from observed event spacing.
	calendarInitWidth = Millisecond

	// calendarRecalEvery is the recalibration window in inserts;
	// calendarMaxShift is the average shift per insert that triggers a
	// width check, and calendarRecalRatio the factor by which the
	// estimate must differ from the current width before re-bucketing.
	// Without that hysteresis a run whose spacing hovers near a boundary
	// re-buckets every window.
	calendarRecalEvery = 1024
	calendarMaxShift   = 4
	calendarRecalRatio = 2
)

// NewCalendarScheduler returns an empty calendar-queue scheduler.
func NewCalendarScheduler() Scheduler {
	cq := &calendarScheduler{width: calendarInitWidth}
	cq.setBuckets(calendarMinBuckets)
	return cq
}

func (cq *calendarScheduler) setBuckets(count int) {
	cq.buckets = make([][]*Event, count)
	cq.mask = count - 1
}

func (cq *calendarScheduler) Name() string { return "calendar" }

func (cq *calendarScheduler) Len() int { return cq.n }

func (cq *calendarScheduler) bucketOf(t Time) int {
	return int(uint64(t/cq.width) & uint64(cq.mask))
}

// dayEnd returns the exclusive end of the day containing t.
func (cq *calendarScheduler) dayEnd(t Time) Time {
	return t - t%cq.width + cq.width
}

func (cq *calendarScheduler) Push(e *Event) {
	e.fileAtKey()
	cq.push(e, cq.bucketOf(e.qwhen))
}

// push files e into bucket idx, which must be bucketOf(e.qwhen).
func (cq *calendarScheduler) push(e *Event, idx int) {
	// Keep the cursor invariant — no queued event is earlier than the
	// current day's start — by stepping the cursor back when an event
	// lands before it.
	if cq.n == 0 || e.qwhen < cq.top-cq.width {
		cq.cur = idx
		cq.top = cq.dayEnd(e.qwhen)
	}
	cq.insert(e, idx)
	if cq.min != nil && eventLess(e, cq.min) {
		cq.min = e
	}
	if cq.n > 2*len(cq.buckets) && len(cq.buckets) < calendarMaxBuckets {
		cq.resize(2 * len(cq.buckets))
	} else if cq.inserts >= calendarRecalEvery {
		cq.recalibrate()
	}
}

// recalibrate closes a recalibration window and re-buckets at the same
// bucket count if the day width has gone stale.
func (cq *calendarScheduler) recalibrate() {
	avg := cq.shifted / cq.inserts
	cq.inserts, cq.shifted = 0, 0
	if avg <= calendarMaxShift {
		return
	}
	w := cq.estimateWidth(cq.buckets)
	if w*calendarRecalRatio <= cq.width || w >= calendarRecalRatio*cq.width {
		cq.rebucket(len(cq.buckets), w)
	}
}

// insert places e into bucket idx (bucketOf(e.qwhen)) in order.
func (cq *calendarScheduler) insert(e *Event, idx int) {
	b := cq.buckets[idx]
	// Binary search for the insertion point. Appends (the common case for
	// monotone timers) hit the fast path immediately.
	lo, hi := 0, len(b)
	if hi == 0 || eventLess(b[hi-1], e) {
		lo = hi
	} else {
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if eventLess(b[mid], e) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
	}
	cq.inserts++
	cq.shifted += len(b) - lo
	b = append(b, nil)
	copy(b[lo+1:], b[lo:])
	b[lo] = e
	for i := lo; i < len(b); i++ {
		b[i].pos = int32(i)
	}
	cq.buckets[idx] = b
	e.bucket = int32(idx)
	e.queued = true
	cq.n++
}

func (cq *calendarScheduler) Pop() *Event {
	e := cq.peek()
	if e == nil {
		return nil
	}
	cq.unlink(e)
	if cq.n < len(cq.buckets)/4 && len(cq.buckets) > calendarMinBuckets {
		cq.resize(len(cq.buckets) / 2)
	}
	return e
}

func (cq *calendarScheduler) PeekWhen() (Time, bool) {
	e := cq.peek()
	if e == nil {
		return 0, false
	}
	return e.when, true
}

// peek returns the minimum queued event without removing it. A head
// filed under an earlier key than its own (a lazily applied Move) is
// re-filed under its key first; it can only move later, so the cursor
// stays valid.
func (cq *calendarScheduler) peek() *Event {
	for {
		e := cq.head()
		if e == nil || e.filedAtKey() {
			return e
		}
		cq.unlink(e) // e was the cached head, so this clears the cache
		e.fileAtKey()
		cq.insert(e, cq.bucketOf(e.qwhen))
	}
}

// head returns the event filed under the least key, advancing the day
// cursor past empty days, and caches it. One full lap without a hit falls
// back to a direct search over bucket heads (the queue is sparse relative
// to its day span), which also re-anchors the cursor at the found event.
func (cq *calendarScheduler) head() *Event {
	if cq.min != nil {
		return cq.min
	}
	if cq.n == 0 {
		return nil
	}
	b, top := cq.cur, cq.top
	for i := 0; i <= cq.mask; i++ {
		if lst := cq.buckets[b]; len(lst) > 0 && lst[0].qwhen < top {
			cq.cur, cq.top = b, top
			cq.min = lst[0]
			return lst[0]
		}
		b = (b + 1) & cq.mask
		top += cq.width
	}
	var best *Event
	for _, lst := range cq.buckets {
		if len(lst) > 0 && (best == nil || eventLess(lst[0], best)) {
			best = lst[0]
		}
	}
	cq.cur = int(best.bucket)
	cq.top = cq.dayEnd(best.qwhen)
	cq.min = best
	return best
}

func (cq *calendarScheduler) Remove(e *Event) {
	cq.unlink(e)
}

// unlink deletes a queued event from its bucket.
func (cq *calendarScheduler) unlink(e *Event) {
	lst := cq.buckets[e.bucket]
	i := int(e.pos)
	copy(lst[i:], lst[i+1:])
	last := len(lst) - 1
	lst[last] = nil
	lst = lst[:last]
	cq.buckets[e.bucket] = lst
	for j := i; j < len(lst); j++ {
		lst[j].pos = int32(j)
	}
	if cq.min == e {
		cq.min = nil
	}
	e.queued = false
	e.pos = -1
	e.bucket = -1
	cq.n--
}

// Move re-keys a queued event. A move to a later key leaves the event
// filed where it is (see peek). A move to an earlier key re-files it at
// once: within its bucket it slides toward the front past only the events
// it now precedes; into another bucket it is an unlink and a push, so the
// cursor step-back, the head cache and the resize rules apply exactly as
// for a fresh insert.
func (cq *calendarScheduler) Move(e *Event, when Time, seq uint64) {
	earlier := movesEarlier(e, when, seq)
	e.when, e.seq = when, seq
	if !earlier {
		return
	}
	idx := cq.bucketOf(when)
	if idx != int(e.bucket) {
		cq.unlink(e)
		e.fileAtKey()
		cq.push(e, idx)
		return
	}
	e.fileAtKey()
	if when < cq.top-cq.width {
		// Same bucket, earlier lap of the calendar: step the cursor back,
		// as push does.
		cq.cur = idx
		cq.top = cq.dayEnd(when)
	}
	b := cq.buckets[idx]
	i := int(e.pos)
	lo, hi := 0, i
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if eventLess(b[mid], e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	copy(b[lo+1:i+1], b[lo:i])
	b[lo] = e
	for j := lo; j <= i; j++ {
		b[j].pos = int32(j)
	}
	cq.inserts++
	cq.shifted += i - lo
	if cq.min != nil && eventLess(e, cq.min) {
		cq.min = e
	}
}

// resize rebuilds the calendar with count buckets and a day width
// recalibrated from the current population's event spacing.
func (cq *calendarScheduler) resize(count int) {
	cq.rebucket(count, cq.estimateWidth(cq.buckets))
}

// rebucket redistributes every queued event over count buckets of the
// given width and opens a fresh recalibration window.
func (cq *calendarScheduler) rebucket(count int, width Time) {
	old := cq.buckets
	cq.width = width
	cq.setBuckets(count)
	cq.n = 0
	cq.min = nil
	for _, lst := range old {
		for _, e := range lst {
			idx := cq.bucketOf(e.qwhen)
			if cq.n == 0 || e.qwhen < cq.top-cq.width {
				cq.cur = idx
				cq.top = cq.dayEnd(e.qwhen)
			}
			cq.insert(e, idx)
		}
	}
	cq.inserts, cq.shifted = 0, 0
}

// estimateWidth picks a day length from the median gap between adjacent
// queued timestamps, estimated from up to 64 strided samples (a strided
// gap spans `stride` adjacent events, so it is divided back down). The
// median is robust against the far-future outliers (RPC deadline timers)
// that would stretch a (max-min)/n estimate into one degenerate
// mega-bucket.
func (cq *calendarScheduler) estimateWidth(buckets [][]*Event) Time {
	whens := cq.whens[:0]
	stride := Time(cq.n/64 + 1)
	skip := Time(0)
	for _, lst := range buckets {
		for _, e := range lst {
			if skip == 0 {
				whens = append(whens, e.qwhen)
				skip = stride
			}
			skip--
		}
	}
	cq.whens = whens[:0]
	if len(whens) < 2 {
		return cq.width
	}
	// Insertion sort: at most 64 samples.
	for i := 1; i < len(whens); i++ {
		for j := i; j > 0 && whens[j] < whens[j-1]; j-- {
			whens[j], whens[j-1] = whens[j-1], whens[j]
		}
	}
	gaps := whens[:0]
	for i := 1; i < len(whens); i++ {
		if g := whens[i] - whens[i-1]; g > 0 {
			gaps = append(gaps, g)
		}
	}
	if len(gaps) == 0 {
		return cq.width
	}
	for i := 1; i < len(gaps); i++ {
		for j := i; j > 0 && gaps[j] < gaps[j-1]; j-- {
			gaps[j], gaps[j-1] = gaps[j-1], gaps[j]
		}
	}
	w := 4 * gaps[len(gaps)/2] / stride
	if w < 1 {
		w = 1
	}
	return w
}
