package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// rearmFn re-arms a caller-owned event d from now.
type rearmFn func(s *Sim, e *Event, d Time, fn func())

// viaRearm re-arms with Sim.Rearm (a queued event moves in place).
func viaRearm(s *Sim, e *Event, d Time, fn func()) { s.Rearm(e, KindOther, d, fn) }

// viaCancelArm is the reference Rearm replaces: Cancel a queued event,
// then Arm it afresh.
func viaCancelArm(s *Sim, e *Event, d Time, fn func()) {
	if e.Queued() {
		e.Cancel()
	}
	s.Arm(e, KindOther, d, fn)
}

// dispatchTrace runs a seeded random workload — timers, nested schedules,
// daemons, same-instant ties, cancellations, pooled posts, armed events
// re-armed while still queued — on the given scheduler and records the
// dispatch order.
func dispatchTrace(t *testing.T, sched Scheduler, rearm rearmFn, seed int64, n int) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := NewWith(sched)
	var got []string
	record := func(tag string) {
		got = append(got, fmt.Sprintf("%d:%s", int64(s.Now()), tag))
	}
	var cancelable []*Event
	var armed []*Event
	// rearmSome re-arms a random armed event, queued or not, somewhere in
	// the next 5 ms: earlier or later than before, in its calendar
	// bucket or another.
	rearmSome := func() {
		if len(armed) == 0 {
			return
		}
		e := armed[rng.Intn(len(armed))]
		tag := fmt.Sprintf("r%d", rng.Intn(1000))
		rearm(s, e, Time(rng.Intn(5000))*Microsecond, func() { record(tag + "-rearmed") })
	}
	id := 0
	var spawn func(depth int)
	spawn = func(depth int) {
		id++
		tag := fmt.Sprintf("e%d", id)
		d := Time(rng.Intn(5)) * Millisecond // frequent same-instant ties
		switch rng.Intn(10) {
		case 0:
			s.AtDaemon(s.Now()+d, func() { record(tag + "-daemon") })
		case 1:
			s.Post(KindOther, d, func() {
				record(tag + "-post")
				if depth < 3 && rng.Intn(2) == 0 {
					spawn(depth + 1)
				}
			})
		case 2:
			e := &Event{}
			armed = append(armed, e)
			s.Arm(e, KindOther, d, func() { record(tag + "-armed") })
		default:
			e := s.Schedule(d, func() {
				record(tag)
				if depth < 3 && rng.Intn(2) == 0 {
					spawn(depth + 1)
				}
				if rng.Intn(3) == 0 {
					rearmSome()
				}
			})
			cancelable = append(cancelable, e)
		}
	}
	for i := 0; i < n; i++ {
		spawn(0)
	}
	for _, e := range cancelable {
		if rng.Intn(4) == 0 {
			e.Cancel()
		}
	}
	for _, e := range armed {
		switch rng.Intn(4) {
		case 0:
			if e.Queued() {
				e.Cancel()
			}
		case 1:
			rearmSome()
		}
	}
	s.Run()
	return got
}

// TestSchedulerDifferential: the same seeded workload must dispatch in an
// identical order on the heap and calendar schedulers, and Rearm must
// dispatch exactly as Cancel followed by Arm — the determinism contract
// every byte-identity CI gate rests on.
func TestSchedulerDifferential(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		ref := dispatchTrace(t, NewHeapScheduler(), viaCancelArm, seed, 200)
		if len(ref) == 0 {
			t.Fatalf("seed %d: empty dispatch trace", seed)
		}
		for _, tc := range []struct {
			name  string
			sched Scheduler
		}{{"heap", NewHeapScheduler()}, {"calendar", NewCalendarScheduler()}} {
			got := dispatchTrace(t, tc.sched, viaRearm, seed, 200)
			if len(got) != len(ref) {
				t.Fatalf("seed %d: %s fired %d events, Cancel+Arm reference %d", seed, tc.name, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("seed %d: dispatch diverges at %d: %s %q, Cancel+Arm reference %q",
						seed, i, tc.name, got[i], ref[i])
				}
			}
		}
	}
}

// TestCalendarResizeChurn drives the calendar through growth and shrink
// cycles with wide timestamp spreads (far-future outliers stress the
// width estimator) and checks global dispatch order.
func TestCalendarResizeChurn(t *testing.T) {
	s := NewWith(NewCalendarScheduler())
	rng := rand.New(rand.NewSource(7))
	var last Time = -1
	fired := 0
	for i := 0; i < 5000; i++ {
		var d Time
		if rng.Intn(50) == 0 {
			d = Time(rng.Intn(1000)) * Hour // outlier
		} else {
			d = Time(rng.Intn(1000)) * Microsecond
		}
		s.Schedule(d, func() {
			if s.Now() < last {
				t.Fatalf("time went backwards: %v after %v", s.Now(), last)
			}
			last = s.Now()
			fired++
		})
	}
	s.Run()
	if fired != 5000 {
		t.Fatalf("fired %d of 5000", fired)
	}
}

// phaseWorkload starts 256 self-renewing timers spaced in milliseconds on
// s. The returned func cancels and re-spaces them in microseconds: the
// set-up to timed-phase shift that leaves a calibrated day width stale
// while the queue length stays put. Dispatches are appended to trace
// unless it is nil.
func phaseWorkload(s *Sim, seed int64, trace *[]string) (toMicro func()) {
	rng := rand.New(rand.NewSource(seed))
	unit := Millisecond
	evs := make([]*Event, 256)
	fire := make([]func(), len(evs))
	for i := range fire {
		i := i
		fire[i] = func() {
			if trace != nil {
				*trace = append(*trace, fmt.Sprintf("%d:%d", int64(s.Now()), i))
			}
			evs[i] = s.Schedule(Time(rng.Intn(256)+1)*unit, fire[i])
		}
		evs[i] = s.Schedule(Time(rng.Intn(256)+1)*unit, fire[i])
	}
	return func() {
		unit = Microsecond
		for i, e := range evs {
			e.Cancel()
			evs[i] = s.Schedule(Time(rng.Intn(256)+1)*unit, fire[i])
		}
	}
}

// TestCalendarRecalibratesOnPhaseChange: after an ms to µs phase change
// every insert lands in one stale day; the calendar must notice the shift
// work, re-bucket at the same bucket count with a µs width, and then keep
// inserts cheap.
func TestCalendarRecalibratesOnPhaseChange(t *testing.T) {
	cq := NewCalendarScheduler().(*calendarScheduler)
	s := NewWith(cq)
	toMicro := phaseWorkload(s, 5, nil)
	for i := 0; i < 4*calendarRecalEvery; i++ {
		s.Step()
	}
	msWidth, buckets := cq.width, len(cq.buckets)
	if msWidth < Millisecond/4 {
		t.Fatalf("ms phase calibrated width %v, want ms scale", msWidth)
	}
	toMicro()
	cq.inserts, cq.shifted = 0, 0
	for i := 0; i < calendarRecalEvery/2; i++ {
		s.Step()
	}
	if avg := cq.shifted / cq.inserts; avg < 8*calendarMaxShift {
		t.Fatalf("stale width shifted only %d events per insert; the test no longer provokes recalibration", avg)
	}
	for i := 0; i < 2*calendarRecalEvery; i++ {
		s.Step()
	}
	if cq.width*100 > msWidth {
		t.Fatalf("width %v after the phase change, want µs scale (was %v)", cq.width, msWidth)
	}
	if len(cq.buckets) != buckets {
		t.Fatalf("recalibration changed the bucket count %d -> %d", buckets, len(cq.buckets))
	}
	// Steady phase: the µs width holds across later windows, and each window
	// averages at most calendarMaxShift shifts per insert.
	usWidth := cq.width
	for w := 0; w < 8; w++ {
		for cq.inserts < calendarRecalEvery-1 {
			s.Step()
		}
		if avg := cq.shifted / cq.inserts; avg > calendarMaxShift {
			t.Fatalf("window %d: %d shifts per insert after recalibration", w, avg)
		}
		s.Step()
	}
	if cq.width != usWidth {
		t.Fatalf("width flapped %v -> %v in a steady phase", usWidth, cq.width)
	}
}

// TestSchedulerDifferentialPhaseChange: recalibration re-buckets but must
// not move a single dispatch relative to the heap.
func TestSchedulerDifferentialPhaseChange(t *testing.T) {
	run := func(sched Scheduler) []string {
		s := NewWith(sched)
		var got []string
		toMicro := phaseWorkload(s, 9, &got)
		for i := 0; i < 5000; i++ {
			s.Step()
		}
		toMicro()
		for i := 0; i < 20000; i++ {
			s.Step()
		}
		return got
	}
	heapGot, calGot := run(NewHeapScheduler()), run(NewCalendarScheduler())
	if len(heapGot) != len(calGot) {
		t.Fatalf("heap fired %d events, calendar %d", len(heapGot), len(calGot))
	}
	for i := range heapGot {
		if heapGot[i] != calGot[i] {
			t.Fatalf("dispatch diverges at %d: heap %q, calendar %q", i, heapGot[i], calGot[i])
		}
	}
}

// TestArmReuse re-arms one embedded event many times, with interleaved
// cancels, and checks each firing lands at the right instant.
func TestArmReuse(t *testing.T) {
	s := New()
	var e Event
	fired := 0
	var rearm func()
	rearm = func() {
		fired++
		if fired < 100 {
			s.Arm(&e, KindOther, Millisecond, rearm)
		}
	}
	s.Arm(&e, KindOther, Millisecond, rearm)
	s.Run()
	if fired != 100 {
		t.Fatalf("fired %d, want 100", fired)
	}
	if s.Now() != 100*Millisecond {
		t.Fatalf("Now = %v, want 100ms", s.Now())
	}
	// Cancel then re-arm.
	s.Arm(&e, KindOther, Millisecond, func() { t.Fatal("canceled firing fired") })
	e.Cancel()
	if e.Queued() {
		t.Fatal("Queued() after Cancel")
	}
	ok := false
	s.Arm(&e, KindOther, Millisecond, func() { ok = true })
	s.Run()
	if !ok {
		t.Fatal("re-armed event did not fire")
	}
}

// TestArmWhileQueuedPanics: double-arming without a Cancel is a bug.
func TestArmWhileQueuedPanics(t *testing.T) {
	s := New()
	var e Event
	s.Arm(&e, KindOther, Millisecond, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("arming a queued event did not panic")
		}
	}()
	s.Arm(&e, KindOther, Millisecond, func() {})
}

// TestPostPoolRecycles: steady-state Post traffic must not grow the free
// list beyond the peak number of in-flight pooled events.
func TestPostPoolRecycles(t *testing.T) {
	s := New()
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired < 1000 {
			s.Post(KindOther, Microsecond, tick)
		}
	}
	s.Post(KindOther, 0, tick)
	s.Run()
	if fired != 1000 {
		t.Fatalf("fired %d, want 1000", fired)
	}
	if len(s.free) > 2 {
		t.Fatalf("free list grew to %d for a 1-in-flight workload", len(s.free))
	}
}

func benchScheduler(b *testing.B, mk func() Scheduler) {
	s := NewWith(mk())
	rng := rand.New(rand.NewSource(1))
	// Self-renewing timer population: 4096 in flight.
	var tick func()
	tick = func() {
		s.Post(KindOther, Time(rng.Intn(1000)+1)*Microsecond, tick)
	}
	for i := 0; i < 4096; i++ {
		s.Post(KindOther, Time(rng.Intn(1000)+1)*Microsecond, tick)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func BenchmarkSchedulerHeap(b *testing.B)     { benchScheduler(b, NewHeapScheduler) }
func BenchmarkSchedulerCalendar(b *testing.B) { benchScheduler(b, NewCalendarScheduler) }

// checkCalendar verifies the calendar's structural invariants: every
// bucket sorted by filing key with matching pos/bucket fields, every event
// filed at or before its own key, the event count, the cursor invariant
// (nothing filed before the current day) and the cached head.
func checkCalendar(t *testing.T, cq *calendarScheduler) {
	t.Helper()
	n := 0
	var head *Event
	for bi, lst := range cq.buckets {
		for i, e := range lst {
			n++
			if !e.queued || int(e.pos) != i || int(e.bucket) != bi || cq.bucketOf(e.qwhen) != bi {
				t.Fatalf("event filed at (%d,%d) in bucket %d slot %d has queued=%v pos=%d bucket=%d, bucketOf=%d",
					e.qwhen, e.qseq, bi, i, e.queued, e.pos, e.bucket, cq.bucketOf(e.qwhen))
			}
			if movesEarlier(e, e.when, e.seq) {
				t.Fatalf("event keyed (%d,%d) filed later, at (%d,%d)", e.when, e.seq, e.qwhen, e.qseq)
			}
			if i > 0 && !eventLess(lst[i-1], e) {
				t.Fatalf("bucket %d unsorted at slot %d", bi, i)
			}
			if e.qwhen < cq.top-cq.width {
				t.Fatalf("event filed at %v before the cursor's day [%v, %v)", e.qwhen, cq.top-cq.width, cq.top)
			}
			if head == nil || eventLess(e, head) {
				head = e
			}
		}
	}
	if n != cq.n {
		t.Fatalf("%d events in buckets, n = %d", n, cq.n)
	}
	if cq.min != nil && cq.min != head {
		t.Fatalf("cached head filed at (%d,%d), true head (%d,%d)", cq.min.qwhen, cq.min.qseq, head.qwhen, head.qseq)
	}
}

// keyedPusher pushes events with consecutive seqs and re-keys them the
// way Sim.Rearm does (each move takes the next seq).
type keyedPusher struct {
	sched Scheduler
	seq   uint64
}

func (p *keyedPusher) push(whens ...Time) []*Event {
	evs := make([]*Event, len(whens))
	for i, w := range whens {
		p.seq++
		evs[i] = &Event{when: w, seq: p.seq, pos: -1, bucket: -1}
		p.sched.Push(evs[i])
	}
	return evs
}

func (p *keyedPusher) move(e *Event, when Time) {
	p.seq++
	p.sched.Move(e, when, p.seq)
}

// keyLess orders events by their own (when, seq) keys, whatever they are
// filed under.
func keyLess(a, b *Event) bool {
	return a.when < b.when || a.when == b.when && a.seq < b.seq
}

// drainWhens pops every event, checking strict (when, seq) order, and
// returns the timestamps.
func drainWhens(t *testing.T, sched Scheduler) []Time {
	t.Helper()
	var out []Time
	var prev *Event
	for e := sched.Pop(); e != nil; e = sched.Pop() {
		if prev != nil && !keyLess(prev, e) {
			t.Fatalf("popped (%d,%d) after (%d,%d)", e.when, e.seq, prev.when, prev.seq)
		}
		if e.queued || !e.filedAtKey() {
			t.Fatalf("popped event queued=%v, filed at (%d,%d) under key (%d,%d)", e.queued, e.qwhen, e.qseq, e.when, e.seq)
		}
		prev = e
		out = append(out, e.when)
	}
	return out
}

func wantWhens(t *testing.T, got []Time, want ...Time) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("dispatch %v, want %v", got, want)
	}
}

const us = Microsecond

// TestCalendarMoveWithinBucket: a move to a later key, in the bucket or
// beyond it, leaves the event filed where it was; a move to an earlier key
// slides it toward the bucket's front, and a later move back past its
// filing key leaves it there.
func TestCalendarMoveWithinBucket(t *testing.T) {
	cq := NewCalendarScheduler().(*calendarScheduler) // 1 ms days
	p := &keyedPusher{sched: cq}
	evs := p.push(10100*us, 10200*us, 10300*us, 10300*us, 10500*us, 10600*us, 10700*us)
	p.move(evs[1], 10650*us) // later, same bucket
	p.move(evs[2], 10300*us) // same instant, new seq: later too
	p.move(evs[4], 12500*us) // later, another bucket
	checkCalendar(t, cq)
	for i, e := range evs {
		if int(e.pos) != i || e.bucket != 10 {
			t.Fatalf("event %d moved to slot %d of bucket %d on a later key", i, e.pos, e.bucket)
		}
	}
	p.move(evs[6], 10050*us) // earlier: to the bucket's head
	checkCalendar(t, cq)
	if evs[6].pos != 0 || !evs[6].filedAtKey() {
		t.Fatalf("earlier move left the event at slot %d, filed at %v", evs[6].pos, evs[6].qwhen)
	}
	p.move(evs[5], 10150*us) // earlier: between two events
	checkCalendar(t, cq)
	if evs[5].pos != 2 {
		t.Fatalf("earlier move to 10.15 ms landed at slot %d, want 2", evs[5].pos)
	}
	wantWhens(t, drainWhens(t, cq), 10050*us, 10100*us, 10150*us, 10300*us, 10300*us, 10650*us, 12500*us)
}

// TestCalendarMoveCachedMin: the cached head moved later must not
// dispatch at its old key — it is re-filed when it reaches the head — and
// an event moved ahead of the head takes the cache over.
func TestCalendarMoveCachedMin(t *testing.T) {
	cq := NewCalendarScheduler().(*calendarScheduler)
	p := &keyedPusher{sched: cq}
	evs := p.push(5000*us, 6000*us, 6500*us, 7500*us)
	peek := func(want Time) {
		t.Helper()
		if w, ok := cq.PeekWhen(); !ok || w != want {
			t.Fatalf("PeekWhen = %v, want %v", w, want)
		}
		checkCalendar(t, cq)
	}
	peek(5000 * us)
	p.move(evs[0], 7200*us) // cached head, later into another bucket
	peek(6000 * us)
	if !evs[0].filedAtKey() || evs[0].bucket != 7 {
		t.Fatalf("re-filed head at %v in bucket %d, want 7.2 ms in bucket 7", evs[0].qwhen, evs[0].bucket)
	}
	p.move(evs[1], 6900*us) // cached head, later in its bucket
	peek(6500 * us)
	p.move(evs[1], 6100*us) // ahead of the head, in its bucket
	checkCalendar(t, cq)
	peek(6100 * us)
	p.move(evs[1], 6050*us) // the head, earlier in its bucket
	peek(6050 * us)
	p.move(evs[3], 4000*us) // ahead of the head, from another bucket
	peek(4000 * us)
	wantWhens(t, drainWhens(t, cq), 4000*us, 6050*us, 6500*us, 7200*us)
}

// TestCalendarMoveBeforeCursorDay: a move to a time before the cursor's
// day must step the cursor back, whether the event stays in its bucket
// (an earlier lap of the calendar) or changes bucket.
func TestCalendarMoveBeforeCursorDay(t *testing.T) {
	cq := NewCalendarScheduler().(*calendarScheduler) // 64 buckets of 1 ms
	p := &keyedPusher{sched: cq}
	evs := p.push(72000*us, 134500*us, 100000*us)
	if e := cq.Pop(); e != evs[0] {
		t.Fatal("first pop is not the 72 ms event")
	}
	if cq.cur != 8 || cq.top != 73*Millisecond {
		t.Fatalf("cursor on bucket %d, day ending %v; want bucket 8, 73ms", cq.cur, cq.top)
	}
	p.move(evs[1], 6200*us) // stays in bucket 6, two laps earlier
	if evs[1].bucket != 6 {
		t.Fatalf("6.2 ms event in bucket %d, want 6", evs[1].bucket)
	}
	checkCalendar(t, cq)
	p.move(evs[2], 3000*us) // another bucket, before the cursor's day
	checkCalendar(t, cq)
	wantWhens(t, drainWhens(t, cq), 3000*us, 6200*us)
}

// TestCalendarMoveAcrossBucketsDuringResize: a cross-bucket move whose
// insert closes a recalibration window re-buckets the calendar at a new
// width, with events still filed under earlier keys by lazy moves; every
// event must come out in order.
func TestCalendarMoveAcrossBucketsDuringResize(t *testing.T) {
	cq := NewCalendarScheduler().(*calendarScheduler)
	p := &keyedPusher{sched: cq}
	rng := rand.New(rand.NewSource(3))
	var whens []Time
	for i := 0; i < 100; i++ {
		whens = append(whens, Time(5000+rng.Intn(10000))*us) // µs spacing in 1 ms days
	}
	evs := p.push(whens...)
	for i := 1; i < 20; i++ {
		whens[i] += Time(rng.Intn(3000)) * us
		p.move(evs[i], whens[i]) // lazy: stays filed early
	}
	// The next insert closes a window whose shift average is far over
	// the limit.
	cq.inserts, cq.shifted = calendarRecalEvery-1, 100*calendarRecalEvery
	width := cq.width
	e := evs[0]
	to := e.when - 3*Millisecond - 7*us
	if cq.bucketOf(to) == int(e.bucket) {
		t.Fatal("test move stays in its bucket")
	}
	p.move(e, to)
	if cq.width == width {
		t.Fatalf("move did not re-bucket (width still %v)", width)
	}
	if e.when != to || !e.queued || !e.filedAtKey() {
		t.Fatalf("moved event keyed %v filed at %v queued=%v, want %v", e.when, e.qwhen, e.queued, to)
	}
	checkCalendar(t, cq)
	whens[0] = to
	slices.Sort(whens)
	wantWhens(t, drainWhens(t, cq), whens...)
}

// TestSchedulerMoveChurn drives both schedulers through the same random
// pushes, moves (earlier and later, near and far), removes and pops while
// the calendar grows, shrinks and recalibrates. Every pop must be the
// live event with the least (when, seq), found by a linear scan.
func TestSchedulerMoveChurn(t *testing.T) {
	heap := &keyedPusher{sched: NewHeapScheduler()}
	cq := NewCalendarScheduler().(*calendarScheduler)
	cal := &keyedPusher{sched: cq}
	var heapEvs, calEvs []*Event
	rng := rand.New(rand.NewSource(11))
	var now Time
	delay := func() Time {
		switch rng.Intn(20) {
		case 0:
			return Time(rng.Intn(100)) * Second // outlier
		case 1, 2:
			return 0 // same-instant tie
		default:
			return Time(rng.Intn(2000)) * us
		}
	}
	var live []int // indices into the event lists of queued events
	maxBuckets, shrunk := 0, false
	for step := 0; step < 60000; step++ {
		grow := step%20000 < 12000 // grow, then shrink, three times
		switch r := rng.Intn(10); {
		case r < 4 && grow || r < 1:
			w := now + delay()
			heapEvs = append(heapEvs, heap.push(w)...)
			calEvs = append(calEvs, cal.push(w)...)
			live = append(live, len(heapEvs)-1)
		case r < 7 && len(live) > 0:
			i := live[rng.Intn(len(live))]
			w := now + delay()
			heap.move(heapEvs[i], w)
			cal.move(calEvs[i], w)
		case r < 8 && len(live) > 0:
			k := rng.Intn(len(live))
			heap.sched.Remove(heapEvs[live[k]])
			cq.Remove(calEvs[live[k]])
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		default:
			want := -1
			for k, i := range live {
				if want < 0 || keyLess(heapEvs[i], heapEvs[live[want]]) {
					want = k
				}
			}
			he, ce := heap.sched.Pop(), cq.Pop()
			if want < 0 {
				if he != nil || ce != nil {
					t.Fatalf("step %d: pop from an empty queue returned an event", step)
				}
				continue
			}
			i := live[want]
			if he != heapEvs[i] || ce != calEvs[i] {
				t.Fatalf("step %d: want (%d,%d), heap popped (%d,%d), calendar (%d,%d)", step,
					heapEvs[i].when, heapEvs[i].seq, he.when, he.seq, ce.when, ce.seq)
			}
			now = he.when
			live[want] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if step%997 == 0 {
			checkCalendar(t, cq)
		}
		if n := len(cq.buckets); n > maxBuckets {
			maxBuckets = n
		} else if n < maxBuckets {
			shrunk = true
		}
	}
	if maxBuckets < 8*calendarMinBuckets || !shrunk {
		t.Fatalf("calendar peaked at %d buckets (shrank: %v); the churn no longer resizes", maxBuckets, shrunk)
	}
	if heap.sched.Len() != len(live) || cq.Len() != len(live) {
		t.Fatalf("heap holds %d events, calendar %d, want %d", heap.sched.Len(), cq.Len(), len(live))
	}
}

// TestPeekAfterLaterMove: with the head moved later but still filed at
// its old key, PeekWhen must report the true next instant, so RunUntil
// does not step into an event beyond its horizon.
func TestPeekAfterLaterMove(t *testing.T) {
	for _, sched := range []Scheduler{NewHeapScheduler(), NewCalendarScheduler()} {
		s := NewWith(sched)
		var fired []Time
		var e Event
		s.Arm(&e, KindOther, Millisecond, func() { fired = append(fired, s.Now()) })
		s.Schedule(5*Millisecond, func() { fired = append(fired, s.Now()) })
		s.Rearm(&e, KindOther, 10*Millisecond, func() { fired = append(fired, s.Now()) })
		if w, ok := sched.PeekWhen(); !ok || w != 5*Millisecond {
			t.Fatalf("%s: PeekWhen = %v, want 5ms", sched.Name(), w)
		}
		s.RunUntil(3 * Millisecond)
		if len(fired) != 0 || s.Now() != 3*Millisecond {
			t.Fatalf("%s: RunUntil(3ms) fired %v, now %v", sched.Name(), fired, s.Now())
		}
		s.Run()
		wantWhens(t, fired, 5*Millisecond, 10*Millisecond)
	}
}

// TestRearmQueuedDaemon: re-arming a queued daemon event turns it into
// real work, as Cancel followed by Arm does, so Run fires it.
func TestRearmQueuedDaemon(t *testing.T) {
	s := New()
	fired := false
	e := s.AtDaemon(Millisecond, func() {})
	s.Rearm(e, KindOther, 2*Millisecond, func() { fired = true })
	if s.Daemons() != 0 {
		t.Fatalf("%d daemons queued after the re-arm, want 0", s.Daemons())
	}
	s.Run()
	if !fired || s.Now() != 2*Millisecond {
		t.Fatalf("fired=%v at %v, want true at 2ms", fired, s.Now())
	}
}
