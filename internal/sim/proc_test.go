package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestProcSleep(t *testing.T) {
	s := New()
	var at []Time
	s.Go("sleeper", func(p *Proc) {
		at = append(at, p.Now())
		p.Sleep(10 * Millisecond)
		at = append(at, p.Now())
		p.Sleep(5 * Millisecond)
		at = append(at, p.Now())
	})
	s.Run()
	want := []Time{0, 10 * Millisecond, 15 * Millisecond}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("at = %v, want %v", at, want)
		}
	}
}

func TestProcInterleaving(t *testing.T) {
	s := New()
	var order []string
	s.Go("a", func(p *Proc) {
		order = append(order, "a0")
		p.Sleep(2 * Second)
		order = append(order, "a2")
	})
	s.Go("b", func(p *Proc) {
		order = append(order, "b0")
		p.Sleep(1 * Second)
		order = append(order, "b1")
	})
	s.Run()
	want := []string{"a0", "b0", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcWaitUntil(t *testing.T) {
	s := New()
	var end Time
	s.Go("w", func(p *Proc) {
		p.WaitUntil(5 * Second)
		p.WaitUntil(1 * Second) // already past: no-op
		end = p.Now()
	})
	s.Run()
	if end != 5*Second {
		t.Fatalf("end = %v, want 5s", end)
	}
}

func TestProcKill(t *testing.T) {
	s := New()
	reached := false
	p := s.Go("victim", func(p *Proc) {
		p.Sleep(10 * Second)
		reached = true
	})
	s.Go("killer", func(k *Proc) {
		k.Sleep(1 * Second)
		p.Kill()
	})
	s.Run()
	if reached {
		t.Fatal("killed process continued past Sleep")
	}
	if !p.Done() {
		t.Fatal("killed process not marked done")
	}
}

func TestResourceMutex(t *testing.T) {
	s := New()
	r := NewResource(s, "mutex", 1)
	var inCS int
	var maxCS int
	for i := 0; i < 5; i++ {
		s.Go("worker", func(p *Proc) {
			r.Acquire(p, 1)
			inCS++
			if inCS > maxCS {
				maxCS = inCS
			}
			p.Sleep(Second)
			inCS--
			r.Release(1)
		})
	}
	s.Run()
	if maxCS != 1 {
		t.Fatalf("max concurrent holders = %d, want 1", maxCS)
	}
	if s.Now() != 5*Second {
		t.Fatalf("serialized time = %v, want 5s", s.Now())
	}
	if r.TotalAcquired() != 5 {
		t.Fatalf("TotalAcquired = %d, want 5", r.TotalAcquired())
	}
}

func TestResourceCapacityParallelism(t *testing.T) {
	s := New()
	r := NewResource(s, "pool", 3)
	for i := 0; i < 6; i++ {
		s.Go("w", func(p *Proc) {
			r.Acquire(p, 1)
			p.Sleep(Second)
			r.Release(1)
		})
	}
	s.Run()
	// 6 jobs, 3 at a time, 1s each => 2s total.
	if s.Now() != 2*Second {
		t.Fatalf("time = %v, want 2s", s.Now())
	}
	if r.PeakInUse() != 3 {
		t.Fatalf("peak = %d, want 3", r.PeakInUse())
	}
}

func TestResourceFIFO(t *testing.T) {
	s := New()
	r := NewResource(s, "r", 1)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		s.Go("w", func(p *Proc) {
			p.Sleep(Time(i) * Millisecond) // stagger arrival
			r.Acquire(p, 1)
			order = append(order, i)
			p.Sleep(Second)
			r.Release(1)
		})
	}
	s.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestResourceTryAcquire(t *testing.T) {
	s := New()
	r := NewResource(s, "r", 2)
	if !r.TryAcquire(2) {
		t.Fatal("TryAcquire(2) on empty failed")
	}
	if r.TryAcquire(1) {
		t.Fatal("TryAcquire(1) on full succeeded")
	}
	r.Release(1)
	if !r.TryAcquire(1) {
		t.Fatal("TryAcquire(1) after release failed")
	}
}

func TestQueueProducerConsumer(t *testing.T) {
	s := New()
	q := NewQueue[int](s, "q", 0)
	var got []int
	s.Go("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, q.Get(p))
		}
	})
	s.Go("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(Second)
			q.Put(p, i)
		}
	})
	s.Run()
	if len(got) != 5 {
		t.Fatalf("got %d items, want 5", len(got))
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("got = %v", got)
		}
	}
}

func TestQueueBoundedBlocksPutter(t *testing.T) {
	s := New()
	q := NewQueue[int](s, "q", 2)
	var putDone Time
	s.Go("producer", func(p *Proc) {
		q.Put(p, 1)
		q.Put(p, 2)
		q.Put(p, 3) // blocks until consumer gets one
		putDone = p.Now()
	})
	s.Go("consumer", func(p *Proc) {
		p.Sleep(5 * Second)
		q.Get(p)
	})
	s.Run()
	if putDone != 5*Second {
		t.Fatalf("third Put completed at %v, want 5s", putDone)
	}
}

func TestSignalBroadcast(t *testing.T) {
	s := New()
	sig := NewSignal(s)
	woken := 0
	for i := 0; i < 3; i++ {
		s.Go("waiter", func(p *Proc) {
			sig.Wait(p)
			woken++
		})
	}
	s.Go("firer", func(p *Proc) {
		p.Sleep(Second)
		if sig.Waiters() != 3 {
			t.Errorf("Waiters = %d, want 3", sig.Waiters())
		}
		sig.Fire()
	})
	s.Run()
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
	if sig.Fires() != 1 {
		t.Fatalf("Fires = %d, want 1", sig.Fires())
	}
}

func TestWaitGroup(t *testing.T) {
	s := New()
	wg := NewWaitGroup(s)
	wg.Add(3)
	var doneAt Time
	for i := 1; i <= 3; i++ {
		i := i
		s.Go("w", func(p *Proc) {
			p.Sleep(Time(i) * Second)
			wg.Done()
		})
	}
	s.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	s.Run()
	if doneAt != 3*Second {
		t.Fatalf("Wait returned at %v, want 3s", doneAt)
	}
}

func TestWaitGroupZeroDoesNotBlock(t *testing.T) {
	s := New()
	wg := NewWaitGroup(s)
	ran := false
	s.Go("w", func(p *Proc) {
		wg.Wait(p)
		ran = true
	})
	s.Run()
	if !ran {
		t.Fatal("Wait on zero counter blocked")
	}
}

// Property: with capacity c and n unit jobs of duration d, makespan is
// ceil(n/c)*d.
func TestPropertyResourceMakespan(t *testing.T) {
	f := func(nRaw, cRaw uint8) bool {
		n := int(nRaw%20) + 1
		c := int(cRaw%5) + 1
		s := New()
		r := NewResource(s, "r", c)
		for i := 0; i < n; i++ {
			s.Go("w", func(p *Proc) {
				r.Acquire(p, 1)
				p.Sleep(Second)
				r.Release(1)
			})
		}
		s.Run()
		rounds := (n + c - 1) / c
		return s.Now() == Time(rounds)*Second
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestStaleWakeOnReusedWorker: a process that finished hands its worker to
// the next process; a stale wake aimed at the finished one must not resume
// the new owner early.
func TestStaleWakeOnReusedWorker(t *testing.T) {
	s := New()
	var stale func()
	var first, second *worker
	s.Go("a", func(p *Proc) {
		first = p.w
		stale = p.Suspend() // never blocks: a finishes with a wake handed out
	})
	var woke Time = -1
	b := s.Go("b", func(p *Proc) {
		second = p.w
		p.Sleep(Second)
		woke = p.Now()
	})
	s.Schedule(Millisecond, func() { stale() })
	s.Run()
	if first == nil || first != second {
		t.Fatalf("b did not reuse a's worker (%p vs %p)", first, second)
	}
	if woke != Second || !b.Done() {
		t.Fatalf("b woke at %v (done=%v), want 1s: the stale wake resumed it", woke, b.Done())
	}
}

// TestKillReturnsWorkerToIdle: a process killed before it starts never
// takes a worker, and one killed while parked unwinds and gives its worker
// back; Run then releases the idle pool.
func TestKillReturnsWorkerToIdle(t *testing.T) {
	s := New()
	ran := false
	early := s.Go("early", func(*Proc) { ran = true })
	early.Kill()
	parked := s.Go("parked", func(p *Proc) {
		p.Sleep(10 * Second)
		ran = true
	})
	s.Go("killer", func(p *Proc) {
		p.Sleep(Second)
		parked.Kill()
	})
	idle := -1
	s.Schedule(2*Second, func() { idle = len(s.idle) })
	s.Run()
	if ran {
		t.Fatal("a killed process ran past its kill point")
	}
	if !early.Done() || !parked.Done() {
		t.Fatalf("done: early=%v parked=%v", early.Done(), parked.Done())
	}
	if idle != 2 {
		t.Fatalf("idle workers after the kills = %d, want 2 (parked's and killer's)", idle)
	}
	if len(s.idle) != 0 {
		t.Fatalf("Run left %d idle workers", len(s.idle))
	}
}

// TestNestedWakeFromProcess: Resource.Release wakes the next waiter
// directly from the releasing process, so the waiter runs (and parks
// again) before the releaser's next statement.
func TestNestedWakeFromProcess(t *testing.T) {
	s := New()
	r := NewResource(s, "r", 1)
	var order []string
	s.Go("holder", func(p *Proc) {
		r.Acquire(p, 1)
		p.Sleep(Second)
		r.Release(1)
		order = append(order, "holder-after-release")
		p.Sleep(Second)
		order = append(order, "holder-done")
	})
	s.Go("waiter", func(p *Proc) {
		r.Acquire(p, 1)
		order = append(order, "waiter-acquired")
		p.Sleep(Second / 2)
		order = append(order, "waiter-woke")
		r.Release(1)
	})
	s.Run()
	want := []string{"waiter-acquired", "holder-after-release", "waiter-woke", "holder-done"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestProcPanicSurfacesFromRun: a panic other than the internal kill
// unwinds out of the process's coroutine and out of Run, where the caller
// can recover it.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	s := New()
	s.Go("bad", func(p *Proc) {
		p.Sleep(Second)
		panic("boom")
	})
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
		if s.Now() != Second {
			t.Fatalf("panic surfaced at %v, want 1s", s.Now())
		}
	}()
	s.Run()
	t.Fatal("Run returned normally")
}
