package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// dispatchTrace runs a seeded random workload — timers, nested schedules,
// daemons, same-instant ties, cancellations, pooled posts, re-armed
// events — on the given scheduler and records the dispatch order.
func dispatchTrace(t *testing.T, sched Scheduler, seed int64, n int) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := NewWith(sched)
	var got []string
	record := func(tag string) {
		got = append(got, fmt.Sprintf("%d:%s", int64(s.Now()), tag))
	}
	var cancelable []*Event
	var armed []*Event
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
		if e.Queued() && rng.Intn(4) == 0 {
			e.Cancel()
		}
	}
	s.Run()
	return got
}

// TestSchedulerDifferential: the same seeded workload must dispatch in an
// identical order on the heap and calendar schedulers — the determinism
// contract every byte-identity CI gate rests on.
func TestSchedulerDifferential(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		heapGot := dispatchTrace(t, NewHeapScheduler(), seed, 200)
		calGot := dispatchTrace(t, NewCalendarScheduler(), seed, 200)
		if len(heapGot) != len(calGot) {
			t.Fatalf("seed %d: heap fired %d events, calendar %d", seed, len(heapGot), len(calGot))
		}
		for i := range heapGot {
			if heapGot[i] != calGot[i] {
				t.Fatalf("seed %d: dispatch diverges at %d: heap %q, calendar %q",
					seed, i, heapGot[i], calGot[i])
			}
		}
		if len(heapGot) == 0 {
			t.Fatalf("seed %d: empty dispatch trace", seed)
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
