//go:build go1.23

package sim

import (
	"fmt"
	"iter"

	"gfs/internal/trace"
)

// Proc is a simulated process: a function running on a pooled coroutine
// whose execution interleaves with the event loop one-at-a-time, SimPy
// style. Inside the process function, blocking calls (Sleep,
// Resource.Acquire, Queue.Get, Signal.Wait) suspend the process and hand
// control back to whoever resumed it; the simulator resumes it when the
// corresponding event fires. At most one party — either the event loop or
// exactly one process — runs at any moment, so process code needs no
// locking and runs deterministically.
//
// A process does not own its coroutine. Once the function returns, the
// worker it ran on goes back to the simulator's idle pool and the next Go
// reuses it. The lifecycle flags (done, killed) stay on the Proc, so a
// stale wake aimed at a finished process is a no-op even after its worker
// runs someone else.
type Proc struct {
	sim    *Sim
	name   string
	fn     func(p *Proc) // body; nil once the process is done
	w      *worker       // coroutine running fn; nil before start and after done
	done   bool
	killed bool
	ctx    trace.Ctx // causal context carried into blocking calls (RPC, IO)

	// timer is the process's reusable event: it carries the start, then
	// every Sleep (at most one is outstanding per process, so one embedded
	// Event serves them all without allocating); wakeFn is its prebuilt
	// callback, also handed out by Suspend.
	timer  Event
	wakeFn func()
}

// worker is a pooled coroutine that runs process bodies one after another.
// next switches into the coroutine; yield, called from inside it, switches
// back out.
type worker struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	p     *Proc // process being run; nil while idle
}

func newWorker() *worker {
	w := &worker{}
	w.next, w.stop = iter.Pull(w.loop)
	return w
}

// loop is the coroutine body: run the assigned process to completion, hand
// control back, and wait to be given the next one. It returns only when the
// pool releases the worker (yield reports false).
func (w *worker) loop(yield func(struct{}) bool) {
	w.yield = yield
	for {
		p := w.p
		p.run()
		p.done = true
		if !yield(struct{}{}) {
			return
		}
	}
}

// run executes the process body, converting the internal kill panic into a
// normal return. Any other panic propagates through the coroutine switch to
// the caller of wake — ultimately out of Sim.Run.
func (p *Proc) run() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procKilled); !ok {
				panic(r)
			}
		}
	}()
	p.fn(p)
}

// Go spawns a process running fn. The process starts at the current virtual
// instant (after currently queued same-time events).
func (s *Sim) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{sim: s, name: name, fn: fn}
	p.wakeFn = p.wake
	s.Arm(&p.timer, KindProcStart, 0, p.wakeFn)
	return p
}

// start binds the process to an idle (or new) worker and runs it until it
// first parks. A process killed before its start never runs and never
// takes a worker.
func (p *Proc) start() {
	if p.killed {
		p.done = true
		p.fn = nil
		return
	}
	s := p.sim
	var w *worker
	if n := len(s.idle); n > 0 {
		w = s.idle[n-1]
		s.idle[n-1] = nil
		s.idle = s.idle[:n-1]
	} else {
		w = newWorker()
	}
	w.p = p
	p.w = w
	p.transfer()
}

// transfer switches into the process's coroutine and returns when the
// process parks or finishes; a finished process's worker goes back to the
// idle pool. Called by whoever resumes the process — the event loop, or
// another process waking it directly (Resource.Release and friends).
func (p *Proc) transfer() {
	w := p.w
	w.next()
	if p.done {
		w.p = nil
		p.w = nil
		p.fn = nil
		p.sim.idle = append(p.sim.idle, w)
	}
}

// yield parks the process and hands control back to whoever resumed it.
// Called only from the process side.
func (p *Proc) yield() {
	p.w.yield(struct{}{})
	if p.killed {
		panic(procKilled{})
	}
}

type procKilled struct{}

// Kill terminates the process the next time it would resume. Blocking calls
// never return in a killed process; its body unwinds via panic/recover
// internally and the worker returns to the idle pool. Must be called from
// the event loop or another process, not from the process itself.
func (p *Proc) Kill() {
	if p.done || p.killed {
		return
	}
	p.killed = true
	// The process is parked somewhere waiting for a resume (or has not
	// started). Resume it once so it can observe killed and unwind. It may
	// be waiting inside a resource queue; those resumes are harmless on a
	// done process because wake() checks the flags.
	p.sim.Post(KindWake, 0, p.wakeFn)
}

// wake starts or resumes the process from the event loop or from another
// process. Safe on finished or killed processes.
func (p *Proc) wake() {
	if p.done {
		return
	}
	if p.w == nil {
		p.start()
		return
	}
	p.transfer()
}

// releaseIdle stops every pooled worker so its coroutine exits; the next Go
// builds a fresh one.
func (s *Sim) releaseIdle() {
	for i, w := range s.idle {
		w.stop()
		s.idle[i] = nil
	}
	s.idle = s.idle[:0]
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Ctx returns the process's causal trace context (zero when tracing is
// off or no operation is in progress).
func (p *Proc) Ctx() trace.Ctx { return p.ctx }

// SetCtx installs a causal trace context on the process. Blocking calls
// made by instrumented components (RPC issue, disk service) read it to
// parent the events they emit. Callers that scope a context to a region
// should restore the previous value afterwards.
func (p *Proc) SetCtx(c trace.Ctx) { p.ctx = c }

// Sim returns the simulator this process belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.Now() }

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.done }

// Sleep suspends the process for duration d of virtual time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v", d))
	}
	p.sim.Arm(&p.timer, KindTimer, d, p.wakeFn)
	p.yield()
}

// WaitUntil suspends the process until absolute virtual time t (no-op if t
// is in the past).
func (p *Proc) WaitUntil(t Time) {
	if t <= p.sim.Now() {
		return
	}
	p.Sleep(t - p.sim.Now())
}

// Suspend returns the function that resumes the process after a Block.
// The returned func is prebuilt (no allocation per block) and safe to call
// exactly once per Block, from event context or from another process.
func (p *Proc) Suspend() (wake func()) {
	return p.wakeFn
}

// Block parks the process immediately; used together with Suspend by
// resource implementations:
//
//	wake := p.Suspend()
//	registerWaiter(wake)
//	p.Block()
func (p *Proc) Block() { p.yield() }
