package netsim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"gfs/internal/sim"
	"gfs/internal/trace"
	"gfs/internal/units"
)

const rateEps = 0.5 // bytes; slop for float remaining-byte arithmetic

// completionHorizon is the farthest ahead a completion event is armed, in
// nanoseconds (~11.6 sim-days). A head message that won't finish within it
// — only possible at a degenerate near-zero rate — leaves the conn parked
// until a solve or placement re-rates it, rather than planting an event
// whose delay overflows sim.Time.
const completionHorizon = 1e15

// message is one byte-counted transfer queued on a conn. Messages are
// recycled through Network.msgFree once delivered.
type message struct {
	size        float64
	remaining   float64
	enq         sim.Time // when Send queued it
	started     sim.Time // when it reached the head of the queue
	ctx         trace.Ctx
	onDelivered func()
}

// Conn is a long-lived, directed transport connection (think one TCP
// connection). Messages sent on a conn are delivered FIFO; while the conn
// has queued bytes it competes for link bandwidth under max-min fairness,
// capped at cwnd/RTT.
type Conn struct {
	net  *Network
	id   int
	src  *Node
	dst  *Node
	path []*Link

	tcp    TCPConfig
	cwnd   float64 // bytes
	oneWay sim.Time
	rtt    sim.Time

	// queue[qhead:] are the undelivered messages, head first. Delivery
	// advances qhead instead of reslicing, so the backing array survives
	// a drain and is reused by the next burst. (int32 packs it beside
	// active, keeping Conn in its allocation size class.)
	queue       []*message
	qhead       int32
	active      bool
	actIdx      int     // index in Network.activeList, -1 when inactive
	rate        float64 // bytes/sec currently allocated
	prevRate    float64 // allocation scratch
	rateCap     float64 // cwnd/RTT, cached; updated on dial/activate/bump
	lastAdvance sim.Time
	idleSince   sim.Time

	// linkPos[i] is this conn's slot in path[i].conns while active, so
	// deactivation is O(path) with no map or search.
	linkPos []int32

	// mark stamps the conn into the current incremental-solve component,
	// solved stamps it assigned within that solve (both compared against
	// Network.epoch).
	mark   uint32
	solved uint32

	// dirtyQ marks the conn queued on Network.dirtyConns for tolerance-
	// mode placement (flow arrival or window bump awaiting a rate).
	dirtyQ bool

	// completionEvt/bumpEvt are caller-owned reusable events (sim.Rearm):
	// the hottest timers in the simulator re-arm with zero allocation.
	completionEvt sim.Event
	bumpEvt       sim.Event
	completionFn  func()
	bumpFn        func()

	bytesSent units.Bytes
	msgsSent  uint64
}

// Dial opens a connection from src to dst with the network's default TCP
// config.
func (nw *Network) Dial(src, dst *Node) *Conn {
	return nw.DialTCP(src, dst, nw.DefaultTCP)
}

// DialTCP opens a connection with an explicit TCP config.
func (nw *Network) DialTCP(src, dst *Node, tcp TCPConfig) *Conn {
	c := &Conn{
		net: nw, id: len(nw.conns),
		src: src, dst: dst,
		tcp:       tcp,
		actIdx:    -1,
		idleSince: nw.Sim.Now(),
	}
	path, err := nw.pathFor(src, dst, c.id)
	if err != nil {
		panic(err)
	}
	c.path = path
	c.linkPos = make([]int32, len(path))
	for _, l := range path {
		c.oneWay += l.delay
	}
	c.rtt = 2 * c.oneWay
	c.cwnd = c.initialWindow()
	c.updateRateCap()
	c.completionFn = func() {
		c.net.onCompletion(c)
	}
	c.bumpFn = c.bump
	nw.conns = append(nw.conns, c)
	return c
}

func (c *Conn) initialWindow() float64 {
	if c.tcp.InitWindow > 0 && c.tcp.MaxWindow > 0 {
		return float64(c.tcp.InitWindow)
	}
	return float64(c.tcp.MaxWindow)
}

// Src returns the sending node.
func (c *Conn) Src() *Node { return c.src }

// Dst returns the receiving node.
func (c *Conn) Dst() *Node { return c.dst }

// RTT returns the round-trip propagation delay of the conn's path.
func (c *Conn) RTT() sim.Time { return c.rtt }

// Path returns the links the conn crosses.
func (c *Conn) Path() []*Link { return c.path }

// BytesSent returns the cumulative payload bytes delivered.
func (c *Conn) BytesSent() units.Bytes { return c.bytesSent }

// Rate returns the currently allocated rate in bytes/sec.
func (c *Conn) Rate() units.BytesPerSec { return units.BytesPerSec(c.rate) }

// updateRateCap refreshes the cached window-imposed rate cap (bytes/sec).
func (c *Conn) updateRateCap() {
	if c.tcp.MaxWindow <= 0 || c.rtt <= 0 {
		c.rateCap = math.Inf(1)
		return
	}
	c.rateCap = c.cwnd / c.rtt.Seconds()
}

// Queued returns the number of undelivered messages.
func (c *Conn) Queued() int { return len(c.queue) - int(c.qhead) }

// Send queues size bytes for delivery; onDelivered (optional) fires at the
// virtual instant the last byte arrives at the destination. Must be called
// from event context (inside an event callback or a process).
func (c *Conn) Send(size units.Bytes, onDelivered func()) {
	c.SendCtx(trace.Ctx{}, size, onDelivered)
}

// SendCtx is Send with a causal context: the flow span this message emits
// on delivery is attributed to ctx.
func (c *Conn) SendCtx(ctx trace.Ctx, size units.Bytes, onDelivered func()) {
	if size < 0 {
		panic(fmt.Sprintf("netsim: negative message size %d", size))
	}
	nw := c.net
	if len(c.path) == 0 {
		// Same-node loopback: deliver immediately.
		c.bytesSent += size
		c.msgsSent++
		if onDelivered != nil {
			nw.Sim.Post(kindDeliver, 0, onDelivered)
		}
		return
	}
	m := nw.newMessage()
	m.size, m.remaining = float64(size), float64(size)
	m.enq = nw.Sim.Now()
	m.ctx = ctx
	m.onDelivered = onDelivered
	if size == 0 {
		m.size, m.remaining = 1, 1 // headers are never free
	}
	if len(c.queue) == cap(c.queue) && c.qhead > 0 && 2*int(c.qhead) >= len(c.queue) {
		// Full, and at least half of it a delivered prefix: compact in
		// place rather than grow. (Compacting a smaller prefix would copy
		// the whole live queue on nearly every send.)
		n := copy(c.queue, c.queue[c.qhead:])
		clear(c.queue[n:])
		c.queue = c.queue[:n]
		c.qhead = 0
	}
	c.queue = append(c.queue, m)
	if !c.active {
		c.activate()
		nw.recompute()
	}
	// A send on an already-active conn changes neither link membership nor
	// any window cap: every allocated rate stays valid verbatim, so no
	// links are dirtied and no reallocation runs.
}

func (c *Conn) activate() {
	nw := c.net
	now := nw.Sim.Now()
	// Slow-start restart after a long idle period (RFC 2861).
	restart := c.tcp.RestartIdle
	if restart <= 0 {
		restart = defaultRestartIdle
	}
	if now-c.idleSince > restart && c.rtt > 0 {
		c.cwnd = c.initialWindow()
		c.updateRateCap()
	}
	c.active = true
	c.lastAdvance = now
	c.queue[c.qhead].started = now
	tol := nw.SolveTolerance > 0
	for i, l := range c.path {
		c.linkPos[i] = int32(len(l.conns))
		l.conns = append(l.conns, linkSlot{c: c, pi: int32(i)})
		if len(l.conns) == 1 {
			l.busyIdx = len(nw.busyLinks)
			nw.busyLinks = append(nw.busyLinks, l)
		}
		if !tol {
			nw.linkChanged(l)
		}
	}
	if tol {
		// Tolerance mode: one joining conn does not dirty its links — it is
		// placed at its path's standing water level, and only links whose
		// load then drifts past the tolerance are re-solved.
		nw.markConnDirty(c)
	}
	c.actIdx = len(nw.activeList)
	nw.activeList = append(nw.activeList, c)
	c.scheduleBump()
}

func (c *Conn) deactivate() {
	nw := c.net
	c.active = false
	rate := c.rate
	c.rate = 0
	c.idleSince = nw.Sim.Now()
	tol := nw.SolveTolerance
	for i, l := range c.path {
		if tol <= 0 {
			nw.linkChanged(l)
		}
		l.used -= rate
		pos := c.linkPos[i]
		last := len(l.conns) - 1
		moved := l.conns[last]
		l.conns[pos] = moved
		moved.c.linkPos[moved.pi] = pos
		l.conns[last] = linkSlot{}
		l.conns = l.conns[:last]
		if last == 0 {
			// An idle link carries nothing: re-zero the incrementally
			// maintained load so float drift dies with the burst.
			l.used = 0
			l.solvedUsed = 0
		} else if tol > 0 {
			// Tolerance mode: a departure frees capacity the survivors keep
			// not using. That slack is an accepted error until the link's
			// load has drifted past the tolerance since its last solve;
			// then the link is re-solved and the slack redistributed.
			if d := l.used - l.solvedUsed; d > tol*l.cap || d < -tol*l.cap {
				nw.linkChanged(l)
			}
		}
		if last == 0 && l.busyIdx >= 0 {
			// Swap-remove from the busy list.
			lastL := nw.busyLinks[len(nw.busyLinks)-1]
			nw.busyLinks[l.busyIdx] = lastL
			lastL.busyIdx = l.busyIdx
			nw.busyLinks = nw.busyLinks[:len(nw.busyLinks)-1]
			l.busyIdx = -1
		}
	}
	// Swap-remove from the active list.
	lastC := nw.activeList[len(nw.activeList)-1]
	nw.activeList[c.actIdx] = lastC
	lastC.actIdx = c.actIdx
	nw.activeList = nw.activeList[:len(nw.activeList)-1]
	c.actIdx = -1
	if c.completionEvt.Queued() {
		c.completionEvt.Cancel()
	}
	if c.bumpEvt.Queued() {
		c.bumpEvt.Cancel()
	}
}

// scheduleBump arranges the next slow-start window doubling, or cancels a
// pending one once the window is at its maximum.
func (c *Conn) scheduleBump() {
	if c.tcp.MaxWindow <= 0 || c.rtt <= 0 || c.cwnd >= float64(c.tcp.MaxWindow) {
		if c.bumpEvt.Queued() {
			c.bumpEvt.Cancel()
		}
		return
	}
	c.net.Sim.Rearm(&c.bumpEvt, kindBump, c.rtt, c.bumpFn)
}

// bump doubles the congestion window — a changed cap invalidates the
// allocation of every conn sharing a link with this one, so its path
// links join the dirty frontier.
func (c *Conn) bump() {
	if !c.active {
		return
	}
	// The cap binds only when the last solve allocated exactly at it
	// (assignRate stores rateCap verbatim, so this equality is exact).
	// Raising a cap the solver never consulted cannot move the max-min
	// fixed point: every allocated rate stays valid, so a link-limited
	// conn's window doubling dirties nothing.
	capped := c.rate >= c.rateCap
	c.cwnd *= 2
	if c.cwnd > float64(c.tcp.MaxWindow) {
		c.cwnd = float64(c.tcp.MaxWindow)
	}
	c.updateRateCap()
	c.scheduleBump()
	if !capped {
		return
	}
	nw := c.net
	if nw.SolveTolerance > 0 {
		// The uncapped conn can claim more; re-place it at its path's
		// water level instead of re-solving every link it crosses.
		nw.markConnDirty(c)
	} else {
		for _, l := range c.path {
			nw.linkChanged(l)
		}
	}
	nw.recompute()
}

// advance credits progress to the head messages up to now, delivering any
// that finish.
func (c *Conn) advance(now sim.Time) {
	if !c.active {
		return
	}
	if now == c.lastAdvance || c.rate == 0 {
		// Nothing to credit: repeat solves at one instant (a draining
		// frontier) advance each conn once, not once per iteration.
		c.lastAdvance = now
		return
	}
	credit := c.rate * (now - c.lastAdvance).Seconds()
	c.lastAdvance = now
	for int(c.qhead) < len(c.queue) {
		head := c.queue[c.qhead]
		if head.remaining > credit+rateEps {
			head.remaining -= credit
			return
		}
		credit -= head.remaining
		head.remaining = 0
		c.deliverHead(now)
	}
}

func (c *Conn) deliverHead(now sim.Time) {
	nw := c.net
	head := c.queue[c.qhead]
	c.queue[c.qhead] = nil
	c.qhead++
	if int(c.qhead) == len(c.queue) {
		c.queue = c.queue[:0]
		c.qhead = 0
	}
	// Any pending completion event refers to the delivered message; drop
	// it so a skipped reschedule can never fire it for the next one.
	if c.completionEvt.Queued() {
		c.completionEvt.Cancel()
	}
	c.bytesSent += units.Bytes(head.size)
	c.msgsSent++
	for _, l := range c.path {
		l.delivered += units.Bytes(head.size)
		if l.Monitor != nil {
			l.Monitor.RecordSpread(units.Bytes(head.size), head.started, now)
		}
	}
	if tr := nw.Sim.Tracer(); tr != nil {
		// The span covers the message's whole life on the wire:
		// [enqueue, last byte at destination] = queue wait (behind
		// earlier messages on this conn) + transmission at the allocated
		// rate + one-way propagation. The sub-phase durations ride along
		// so critical-path attribution can split serialization from
		// speed-of-light time.
		tr.SpanCtx(head.ctx, 0, "flow", "xfer", c.src.name+"->"+c.dst.name,
			int64(head.enq), int64(now+c.oneWay),
			trace.I("bytes", int64(head.size)),
			trace.I("queued", int64(c.Queued())),
			trace.I("queue_ns", int64(head.started-head.enq)),
			trace.I("xmit_ns", int64(now-head.started)),
			trace.I("prop_ns", int64(c.oneWay)))
	}
	if reg := nw.Metrics; reg != nil {
		reg.Counter("net.msgs").Inc()
		reg.Counter("net.bytes").Add(uint64(head.size))
		reg.Histogram("flow.xfer_ns").Observe(float64(now - head.started))
	}
	if head.onDelivered != nil {
		cb := head.onDelivered
		nw.Sim.Post(kindDeliver, c.oneWay, cb)
	}
	nw.freeMessage(head)
	if c.Queued() == 0 {
		c.deactivate()
	} else {
		c.queue[c.qhead].started = now
	}
}

// scheduleCompletion arranges the event at which the head message finishes
// at the current rate.
func (c *Conn) scheduleCompletion() {
	if !c.active || c.Queued() == 0 || c.rate <= 0 {
		if c.completionEvt.Queued() {
			c.completionEvt.Cancel()
		}
		return
	}
	// A rate that is float dust (the residue of cap-minus-used
	// subtraction, ~2^-24 B/s) would put the completion ~1e23 ns out —
	// past int64, where the conversion wraps and the dt<1 clamp would
	// re-arm it every nanosecond instead. Park the conn: don't arm at all
	// beyond the horizon. Any future solve or placement that gives it a
	// real rate reschedules it.
	ns := c.queue[c.qhead].remaining / c.rate * 1e9
	if ns > completionHorizon {
		if c.completionEvt.Queued() {
			c.completionEvt.Cancel()
		}
		return
	}
	// Round the completion instant up to a whole nanosecond so a
	// sub-epsilon float remainder can never re-arm a zero-delay event in
	// an endless same-timestamp loop. A pending event is re-keyed in
	// place (one scheduler operation, same dispatch order as a Cancel and
	// an Arm).
	dt := sim.Time(math.Ceil(ns))
	if dt < 1 {
		dt = 1
	}
	c.net.Sim.Rearm(&c.completionEvt, kindCompletion, dt, c.completionFn)
}

func (nw *Network) onCompletion(c *Conn) {
	c.advance(nw.Sim.Now())
	if c.active {
		c.scheduleCompletion()
	}
	nw.recompute() // no-op unless the delivery dirtied links
}

// newMessage draws a message from the free pool.
func (nw *Network) newMessage() *message {
	if n := len(nw.msgFree); n > 0 {
		m := nw.msgFree[n-1]
		nw.msgFree[n-1] = nil
		nw.msgFree = nw.msgFree[:n-1]
		return m
	}
	return &message{}
}

// freeMessage recycles a delivered message.
func (nw *Network) freeMessage(m *message) {
	*m = message{}
	nw.msgFree = append(nw.msgFree, m)
}

// linkChanged adds a link to the dirty frontier: its active-conn
// membership, a crossing conn's window cap, or its up/down state changed,
// so rates in its connected component must be re-solved. Links already
// marked into the component being advanced by the in-progress solve are
// not re-queued — the solve reads membership live and will allocate them
// this pass.
func (nw *Network) linkChanged(l *Link) {
	if l.dirty {
		return
	}
	if nw.inSolve && l.mark == nw.epoch {
		return
	}
	l.dirty = true
	nw.dirtyLinks = append(nw.dirtyLinks, l)
}

// markConnDirty queues a conn for tolerance-mode placement: a flow
// arrival or a window bump needs a (new) rate, but giving one conn its
// path's standing water level does not require re-solving the links it
// crosses. Processing order is append order — deterministic.
func (nw *Network) markConnDirty(c *Conn) {
	if c.dirtyQ {
		return
	}
	c.dirtyQ = true
	nw.dirtyConns = append(nw.dirtyConns, c)
}

// recompute requests a rate reallocation over the dirty frontier.
// Requests are coalesced into a single event (subject to
// MinRecomputeInterval) so a burst of changes at one instant pays for one
// allocation pass; when no links are dirty the request is free.
func (nw *Network) recompute() {
	if (len(nw.dirtyLinks) == 0 && len(nw.dirtyConns) == 0) ||
		nw.inRecompute || nw.recomputeScheduled {
		return
	}
	nw.recomputeScheduled = true
	var delay sim.Time
	iv := nw.MinRecomputeInterval
	if s := sim.Time(nw.lastSolveConns) * nw.RecomputePerConn; s > iv {
		iv = s
	}
	if iv > 0 {
		if next := nw.lastRecompute + iv; next > nw.Sim.Now() {
			delay = next - nw.Sim.Now()
		}
	}
	nw.Sim.Post(kindRecompute, delay, nw.recomputeFn)
}

// doRecompute re-solves dirty components until the frontier drains
// (advancing a component can deliver messages and dirty further links,
// and in tolerance mode a violated boundary re-seeds the frontier).
func (nw *Network) doRecompute() {
	nw.recomputeScheduled = false
	nw.lastRecompute = nw.Sim.Now()
	nw.inRecompute = true
	defer func() { nw.inRecompute = false }()
	for len(nw.dirtyLinks) > 0 || len(nw.dirtyConns) > 0 {
		nw.solveDirty()
	}
	if len(nw.deferredLinks) > 0 {
		// Tolerance mode: promote boundary expansions held over by
		// solveLocal into the dirty frontier, but do NOT book a drain just
		// for them: any flow event (a completion's deactivate, an
		// arrival's placement) calls recompute, sees the dirt and
		// schedules the next throttle-paced drain, merging the trunk
		// expansion with whatever else accumulated. Traffic dense enough
		// to drift a boundary past tolerance delivers that next event
		// within a throttle interval or so, and an idle network has
		// nothing left to re-rate — staleness stays bounded without
		// spending a dedicated recompute event per expansion.
		nw.dirtyLinks = append(nw.dirtyLinks, nw.deferredLinks...)
		nw.deferredLinks = nw.deferredLinks[:0]
	}
}

// solveDirty re-solves max-min fairness over the dirty frontier and leaves
// every other conn's rate untouched. At SolveTolerance 0 it closes the
// frontier over whole connected components (exact); above 0 it first
// places dirty conns at their paths' standing water levels (no solve at
// all), then runs the bottleneck-local solve over whatever links the
// placements and departures have drifted past the tolerance, or the exact
// closure over every busy link when the periodic re-anchor is due.
//
// A tolerance-mode drain terminates without a cap on its local rounds:
// each local solve clears the frontier it was given, and a boundary it
// violates is deferred to the next drain (deferredLinks), so only
// deliveries inside the drain's advance passes can re-dirty links — and
// every delivery retires a message.
func (nw *Network) solveDirty() {
	if nw.SolveTolerance <= 0 {
		nw.solveClosure()
		return
	}
	if len(nw.dirtyConns) > 0 {
		nw.placeDirtyConns()
	}
	if nw.localSince >= defaultFullSolveEvery {
		// Periodic full solve: re-anchor every streaming conn at the exact
		// max-min fixed point so placement and boundary-tolerance drift
		// cannot accumulate. Seeding the frontier with every busy link
		// makes the closure cover everything active.
		nw.localSince = 0
		nw.stats.PeriodicFulls++
		for _, l := range nw.busyLinks {
			if !l.dirty {
				l.dirty = true
				nw.dirtyLinks = append(nw.dirtyLinks, l)
			}
		}
		nw.solveClosure()
		return
	}
	if len(nw.dirtyLinks) == 0 {
		return // placements stayed within tolerance everywhere
	}
	nw.localSince++
	nw.solveLocal()
}

// placeDirtyConns gives each queued conn a rate at the standing water
// level of its path — the minimum over its links of what a joiner can
// claim there (see placeLevel) — without solving anything. O(path) per
// conn, against O(crossing conns) for the smallest possible solve; flow
// arrivals and window bumps in a steady fleet all take this path.
//
// A placement may overcommit a link: a joiner on a saturated trunk is
// granted the trunk's standing level even though the slack is zero,
// because its max-min fair share there is the level, not the slack. The
// error is bounded by the drift check — any link whose load has moved
// more than SolveTolerance x capacity since its last solve joins the
// dirty frontier and is re-solved exactly, in this same recompute drain,
// before virtual time advances. Under-grants self-correct the same way:
// a placed conn's rate only rises in later solves of its links.
func (nw *Network) placeDirtyConns() {
	now := nw.Sim.Now()
	tol := nw.SolveTolerance
	placed := 0
	for i := 0; i < len(nw.dirtyConns); i++ {
		c := nw.dirtyConns[i]
		c.dirtyQ = false
		if !c.active {
			continue
		}
		// Credit progress at the old rate before changing it. A delivery
		// here can deactivate the conn (drift checks in deactivate handle
		// its links); callbacks are posted, never run inline.
		c.advance(now)
		if !c.active {
			continue
		}
		r := c.rateCap
		var lim *Link
		for _, l := range c.path {
			if est := l.placeLevel(c.rate); est < r {
				r = est
				lim = l
			}
		}
		// Fair-floor guard: max-min fairness guarantees every conn on a
		// link at least cap/len(conns) (the water level can't drop below
		// it). A placement that lands under that floor means the conn
		// would have to displace incumbents to claim its share — which a
		// placement can't do — so hand the link to the real solver. This
		// is what keeps a joiner on a saturated never-bottleneck link
		// (standing level unknown, slack zero) from starving, and is what
		// eventually claws back an incumbent hogging a link whose
		// population has since grown.
		if lim != nil && !lim.down {
			if fair := lim.cap / float64(len(lim.conns)); r < fair*(1-1e-9) {
				nw.linkChanged(lim)
			}
		}
		old := c.rate
		c.rate = r
		for _, l := range c.path {
			l.used += r - old
			if d := l.used - l.solvedUsed; d > tol*l.cap || d < -tol*l.cap {
				nw.linkChanged(l)
			}
		}
		placed++
		if r != old || !c.completionEvt.Queued() {
			c.scheduleCompletion()
		}
	}
	nw.dirtyConns = nw.dirtyConns[:0]
	nw.stats.Placements += uint64(placed)
	// A placement batch counts toward the periodic re-anchor: a workload
	// that settles into pure placements must still be pulled back to the
	// exact fixed point every defaultFullSolveEvery rounds.
	nw.localSince++
}

// solveClosure is the exact incremental solve: re-solve the connected
// component(s) of the dirty frontier.
//
// Invariant: a conn's max-min rate depends only on its connected component
// (conns sharing links, transitively). Progressive filling decomposes
// exactly across components, so re-solving the closure of the dirty links
// reproduces what a from-scratch global solve would assign there, while
// rates outside the closure are still valid — none of their links'
// membership, caps, or up/down state changed.
func (nw *Network) solveClosure() {
	now := nw.Sim.Now()
	nw.epoch++
	epoch := nw.epoch

	// Closure: dirty links -> their conns -> those conns' links -> ...
	links := nw.compLinks[:0]
	for _, l := range nw.dirtyLinks {
		l.dirty = false
		if l.mark != epoch {
			l.mark = epoch
			links = append(links, l)
		}
	}
	nw.dirtyLinks = nw.dirtyLinks[:0]
	conns := nw.compConns[:0]
	for li := 0; li < len(links); li++ {
		for _, slot := range links[li].conns {
			c := slot.c
			if c.mark == epoch {
				continue
			}
			c.mark = epoch
			conns = append(conns, c)
			for _, pl := range c.path {
				if pl.mark != epoch {
					pl.mark = epoch
					links = append(links, pl)
				}
			}
		}
	}

	nw.lastSolveConns = len(conns)
	nw.stats.FullSolves++
	nw.noteFrontier(len(conns))

	// Advance component conns at their old rates before changing them.
	// This may deliver messages and deactivate conns; linkChanged defers
	// re-queuing links already in this component (membership is read live
	// below), while newly touched outside links re-enter the frontier.
	// The survivors are collected in the same pass — advance only
	// changes its own conn's active flag, so the post-advance state each
	// append sees is final.
	unassigned := nw.unassigned[:0]
	minCap := math.Inf(1)
	nw.inSolve = true
	for _, c := range conns {
		c.advance(now)
		if !c.active {
			continue
		}
		c.prevRate = c.rate
		if c.rateCap < minCap {
			minCap = c.rateCap
		}
		unassigned = append(unassigned, c)
	}
	nw.inSolve = false
	for _, l := range links {
		l.residual = l.cap
		if l.down {
			l.residual = 0 // failed link: crossing conns get rate 0 and stall
		}
		l.nActive = len(l.conns)
		l.level = 0 // re-established below if the link turns out to bind
	}

	nw.waterFill(links, unassigned, minCap)

	// Every component link is now exactly consistent: re-anchor the
	// tolerance-mode drift baseline at its true load.
	for _, l := range links {
		l.solvedUsed = l.used
	}

	// Keep the grown scratch backing arrays for the next solve.
	nw.compLinks = links[:0]
	nw.compConns = conns[:0]
	nw.unassigned = unassigned[:0]
}

// solveLocal is the bottleneck-local solve: instead of closing the dirty
// frontier over whole connected components, it re-solves only the conns
// that cross a dirty link. Every other link those conns touch becomes a
// *boundary link*: its residual capacity is what the conns outside the
// region leave behind (cap - (used - region's share)), and only the
// region's conns compete for it — the outside conns' rates are treated as
// fixed. Striped read-ahead fuses the production fleet into one giant
// component, so the exact closure re-solves O(fleet) conns on every dirty
// link; the local region is O(conns on the dirty links) instead.
//
// The approximation is checked a posteriori: if the solve moved a boundary
// link's carried load by more than SolveTolerance x capacity, the outside
// conns' fair shares there have materially shifted, so the link re-enters
// the dirty frontier and the next solve expands across it. Expansion is
// therefore adaptive — it propagates exactly as far as shares move past
// the tolerance — and each round's rates are consistent snapshots (bytes
// are conserved regardless: completions settle exact message sizes, so a
// stale rate shifts timing, never data).
func (nw *Network) solveLocal() {
	now := nw.Sim.Now()
	nw.epoch++
	epoch := nw.epoch

	// Region links: the dirty seeds only, no transitive closure.
	links := nw.compLinks[:0]
	for _, l := range nw.dirtyLinks {
		l.dirty = false
		if l.mark != epoch {
			l.mark = epoch
			links = append(links, l)
		}
	}
	nw.dirtyLinks = nw.dirtyLinks[:0]

	// Region conns: everything crossing a seed.
	conns := nw.compConns[:0]
	for _, l := range links {
		for _, slot := range l.conns {
			c := slot.c
			if c.mark != epoch {
				c.mark = epoch
				conns = append(conns, c)
			}
		}
	}

	nw.lastSolveConns = len(conns)
	nw.stats.LocalSolves++
	nw.noteFrontier(len(conns))

	// Advance region conns at their old rates before changing them. A
	// delivery here can deactivate a conn; deactivation dirties its links,
	// and the boundary links among them (mark != epoch) re-enter the
	// frontier for the next solveDirty pass — membership changes at the
	// region's edge are always re-solved, never approximated away.
	unassigned := nw.unassigned[:0]
	minCap := math.Inf(1)
	nw.inSolve = true
	for _, c := range conns {
		c.advance(now)
		if !c.active {
			continue
		}
		c.prevRate = c.rate
		if c.rateCap < minCap {
			minCap = c.rateCap
		}
		unassigned = append(unassigned, c)
	}
	nw.inSolve = false

	// Boundary discovery over the survivors, accumulating the region's
	// current (pre-solve) load and membership on each boundary link.
	boundary := nw.boundLinks[:0]
	for _, c := range unassigned {
		for _, pl := range c.path {
			if pl.mark == epoch {
				continue
			}
			if pl.bMark != epoch {
				pl.bMark = epoch
				pl.compUsed, pl.compNew = 0, 0
				pl.compActive = 0
				pl.compLevel = math.Inf(1)
				pl.compList = pl.compList[:0]
				boundary = append(boundary, pl)
			}
			pl.compUsed += c.rate
			pl.compActive++
			pl.compList = append(pl.compList, c)
		}
	}
	nw.stats.BoundaryLinks += uint64(len(boundary))

	// Link init. Region links are fully re-solved: every conn crossing
	// them is in the region. Boundary links offer only what the outside
	// conns leave: residual = cap - (used - region's share), contended by
	// the region's crossers alone.
	for _, l := range links {
		l.residual = l.cap
		if l.down {
			l.residual = 0
		}
		l.nActive = len(l.conns)
		l.level = 0 // re-established below if the link turns out to bind
	}
	for _, l := range boundary {
		outside := l.used - l.compUsed
		if outside < 0 {
			outside = 0
		}
		l.residual = l.cap - outside
		// A standing bottleneck offers each region crosser its water level,
		// not the leftover slack. On a saturated shared trunk the slack is
		// near zero, and splitting it would starve the region's crossers
		// while the trunk's incumbents keep their full fair share —
		// guaranteeing a fairness violation and a trunk-wide re-solve
		// after every local solve at its edge. Slack the trunk does have
		// (a departure's share) belongs to every conn it bottlenecks, not
		// to the region alone; it stays idle until the drift check
		// re-solves the trunk. Rating crossers at the standing level
		// matches what the incumbents hold, the same reasoning as
		// placeLevel for arrivals; any overcommit this books against a
		// stale level is bounded by the drift check too.
		if l.level > 0 {
			l.residual = l.level * float64(l.compActive)
			if l.residual > l.cap {
				l.residual = l.cap
			}
		}
		if l.down || l.residual < 0 {
			l.residual = 0
		}
		l.nActive = l.compActive
	}

	// Water filling over region + boundary links. Boundary links join the
	// round scan like region links; waterFill drains a binding boundary
	// link through its region-crosser list (see there).
	links = append(links, boundary...)
	nw.waterFill(links, unassigned, minCap)

	// Region links are now exactly consistent: re-anchor their drift
	// baseline. Boundary links re-anchor below, only if they pass the
	// tolerance checks — a violated boundary is about to be re-solved.
	for _, l := range links {
		if l.bMark != epoch {
			l.solvedUsed = l.used
		}
	}

	// A-posteriori tolerance checks, O(1) per boundary link plus one pass
	// over its region crossers. A boundary link seeds the next solve
	// (growing the region across it) if any of:
	//
	//   - its total load has drifted past the tolerance since the last
	//     solve that re-rated its own conns. This deliberately measures
	//     cumulative drift against the standing solvedUsed baseline, not
	//     the shift this one region solve produced: each region solve
	//     nudges a shared trunk a little, and expanding on every nudge
	//     escalates every local solve into a trunk-sized one. Letting the
	//     nudges accumulate until they sum past tolerance x cap is
	//     exactly the tolerance-mode contract, and buys one trunk solve
	//     per tolerance-worth of real movement instead of one per drain.
	//     For the same reason a passing boundary is NOT re-anchored here
	//     — forgiving drift without re-solving the outside conns would
	//     let it grow without bound;
	//   - it bound the region at water level m while its own standing
	//     bottleneck level, or the outside conns' mean rate, is more than
	//     1.5x above m + tolerance x cap/n. Max-min fairness forbids that
	//     spread on a shared link — the outside conns must give up share.
	//     Without this check a region conn squeezed to m = 0 by a
	//     saturated boundary would shift the load by 0 - 0, mask the
	//     first check, and starve forever. Two calibrations matter. The
	//     additive slop scales with the per-conn fair share cap/n, not
	//     cap: on a trunk carrying hundreds of conns the fair share is
	//     far below tolerance x cap, and a cap-scaled slop would wave
	//     through a region conn pinned at float dust while outside conns
	//     average a thousand times more. And the trigger is a 1.5x ratio,
	//     not the slop alone: ordinary steady-state spread between a
	//     region's level and a trunk's keeps every boundary a few percent
	//     apart, and an additive-only trigger re-expands on that noise
	//     every drain — the expansion ping-pong costs more than the
	//     closure it was avoiding;
	//   - a region crosser's new rate is more than 1.5x above the link's
	//     own standing bottleneck level plus the same slop. The outside
	//     conns last drained here at that level, so this link is their
	//     bottleneck and max-min fairness owes them a share of what the
	//     region holds. The level offer above gives the region level x
	//     crossers in all; when some crossers are held lower elsewhere
	//     (say, zeroed by a failed trunk), the fill hands their share to
	//     the others, the load does not move, and the drift check stays
	//     silent.
	//
	// The mean-rate test can miss a single outlier hiding among many
	// slow outside conns; the periodic full solve bounds how long such a
	// skew can survive. (Advance-pass deactivations may have dirtied some
	// of these links already; linkChanged de-dupes.)
	expanded := false
	tol := nw.SolveTolerance
	for _, l := range boundary {
		if l.compActive == len(l.conns) {
			// Every conn crossing this boundary link was in the region: the
			// fill re-rated all of them against the link's full capacity,
			// leaving it exactly as consistent as a region link. Re-anchor
			// it instead of testing drift — the load shift it just absorbed
			// is the solve's own output, not staleness, and flagging it
			// would re-solve a link with nothing left to correct. This is
			// the common case for client access links at a region's edge
			// (one conn each), and treating them as drift was the single
			// largest source of expansion ping-pong.
			l.solvedUsed = l.used
			continue
		}
		d := l.used - l.solvedUsed
		violated := d > tol*l.cap || d < -tol*l.cap
		if outN := len(l.conns) - l.compActive; !violated && outN > 0 {
			slop := tol * l.cap / float64(len(l.conns))
			// The outside conns hold far more than the region...
			violated = !math.IsInf(l.compLevel, 1) &&
				l.used-l.compNew > 1.5*(l.compLevel+slop)*float64(outN)
			if !violated && l.level > 0 {
				// ...or a region conn far more than the outside conns.
				hi := 1.5 * (l.level + slop)
				for _, c := range l.compList {
					if c.rate > hi {
						violated = true
						break
					}
				}
			}
		}
		if violated {
			expanded = true
			// Defer, don't cascade: a violated boundary is usually a trunk,
			// and re-solving it in this same drain would swallow the whole
			// trunk component — once per drain, thousands of conns a rung,
			// rung after rung as the region grows. Holding it for the next
			// recompute event lets the cost-scaled throttle pace trunk
			// solves while this drain stays regional. The staleness window
			// is one throttle interval, the same bound MinRecomputeInterval
			// already imposes on every rate in the system. Placement and
			// departure drift still dirty links directly and are solved
			// within their own drain.
			if !l.dirty {
				l.dirty = true
				nw.deferredLinks = append(nw.deferredLinks, l)
			}
		}
	}
	if expanded {
		nw.stats.Expansions++
	}

	// Keep the grown scratch backing arrays for the next solve.
	nw.compLinks = links[:0]
	nw.compConns = conns[:0]
	nw.unassigned = unassigned[:0]
	nw.boundLinks = boundary[:0]
}

// assignRate fixes a conn's allocation, withdraws it from its links, and
// re-arms its completion event. Every active conn is assigned exactly
// once per solve (the solved-epoch guard), and its rate is final at that
// moment, so completion scheduling rides along instead of paying a third
// full scan over the component.
func (nw *Network) assignRate(c *Conn, r float64) {
	old := c.rate
	c.rate = r
	for _, l := range c.path {
		l.residual -= r
		if l.residual < 0 {
			l.residual = 0
		}
		l.nActive--
		l.used += r - old
		if l.bMark == nw.epoch {
			// Boundary link of a local solve: tally the region's new load
			// for the a-posteriori tolerance check. Never true at
			// SolveTolerance 0 (bMark is only ever stamped by local solves).
			l.compNew += r
		}
	}
	// A conn whose rate is unchanged keeps its pending completion
	// event — rescheduling it would be pure queue churn.
	if r == c.prevRate && c.completionEvt.Queued() {
		return
	}
	c.scheduleCompletion()
}

// waterFill is the link-centric water filling shared by the closure and
// the local solve: it assigns every conn in unassigned its max-min rate
// over links, whose residual and nActive the caller has initialised.
// minCap is at most the smallest window cap in unassigned. Each round finds
// the most constrained link and settles work at its fair share m; because
// fixing a conn at (or below) the minimum share can only raise the other
// links' shares, m is non-decreasing across rounds, which makes three
// shortcuts exact:
//
//   - Cap rounds: once some cap falls at or below m, the unassigned conns'
//     caps are copied into flat keys (once per solve), and each cap round
//     moves the keys with cap <= m into a batch, sorts only that batch by
//     (cap, conn id) and fixes those conns at their caps. A cap passed
//     once can never bind again, and (cap, id) is a total order, so the
//     assignment sequence is the one a min-heap over every conn would pop.
//   - A bottleneck round assigns exactly the conns crossing the min link
//     (each gets m, zeroing the link's residual and nActive), instead of
//     rescanning every remaining conn's path share.
//   - The round scan visits only links that still have unassigned conns:
//     nActive never rises within a solve, so a drained link is dropped
//     from the scan list for good. Compaction keeps the list's order, so
//     tied links are found in the same order as a scan of every link.
//
// Round cost is O(live links) + O(conns fixed x path), so a solve is
// linear-ish in the component rather than rounds x conns x path — the
// term that dominated the from-scratch solver at 1024 nodes.
func (nw *Network) waterFill(links []*Link, unassigned []*Conn, minCap float64) {
	epoch := nw.epoch
	left := len(unassigned)
	var keys []capKey // built only if a window cap can actually bind
	keysBuilt := false
	ties := nw.tieLinks[:0]
	// act holds the links that may still have unassigned conns, in links
	// order; each round's scan compacts the drained ones out in place.
	act := append(nw.actLinks[:0], links...)
	for left > 0 {
		m := math.Inf(1)
		ties = ties[:0]
		live := 0
		for _, l := range act {
			if l.nActive <= 0 {
				continue
			}
			act[live] = l
			live++
			if s := l.residual / float64(l.nActive); s < m {
				m = s
				ties = append(ties[:0], l)
			} else if s == m {
				ties = append(ties, l)
			}
		}
		act = act[:live]
		if len(ties) == 0 {
			// No link constraint: should not happen (active conns always
			// cross >= 1 link), but terminate safely at the window cap.
			for _, c := range unassigned {
				if c.solved != epoch {
					c.solved = epoch
					nw.assignRate(c, c.rateCap)
					left--
				}
			}
			break
		}
		if minCap <= m {
			// Some cap binds below the fair share. Collect the keys on
			// first need: most solves end with every cap above the water
			// level and never pay for ordering at all.
			if !keysBuilt {
				keysBuilt = true
				keys = appendCapKeys(nw.capKeys[:0], unassigned, epoch)
				nw.capKeys = keys[:0]
			}
			var due []capKey
			keys, due, minCap = takeCapped(keys, nw.capDue[:0], m, unassigned, epoch)
			nw.capDue = due[:0]
			for _, k := range due {
				c := unassigned[k.ui]
				c.solved = epoch
				nw.assignRate(c, c.rateCap)
				left--
			}
			continue
		}
		// Drain the bottlenecks: every unsolved conn crossing a link at
		// the minimum share gets exactly m (their caps are all above m —
		// the cap rounds already fixed everything at or below it).
		// Draining every exactly-tied link in one round matters in
		// symmetric topologies, where hundreds of identical access links
		// hit bit-identical shares: fixing a conn at the minimum share
		// leaves the other tied links' shares at exactly m, so they are
		// all bottlenecks of the same water level.
		for _, l := range ties {
			if l.bMark == epoch {
				// Boundary link of a local solve (never at SolveTolerance
				// 0): it bound the region at water level m; the
				// a-posteriori check compares it to the link's own
				// standing level and the outside conns' mean rate. Drain
				// from the region-crosser list built during boundary
				// discovery — the link's own conn list is mostly outside
				// conns (a trunk carries thousands) and scanning it per
				// tie round dominated local-solve cost.
				if m < l.compLevel {
					l.compLevel = m
				}
				if l.compActive == len(l.conns) {
					// Every conn crossing this link is in the region, so the
					// fill is re-rating all of them: the link binds with its
					// full capacity exactly like a region link, and its
					// standing level is as trustworthy as theirs.
					l.level = m
				}
				for _, c := range l.compList {
					if c.solved == epoch {
						continue
					}
					c.solved = epoch
					nw.assignRate(c, m)
					left--
				}
				continue
			}
			l.level = m // standing water level for tolerance-mode placement
			for _, slot := range l.conns {
				c := slot.c
				if c.mark != epoch || c.solved == epoch {
					continue // not in this solve's conn set, or already done
				}
				c.solved = epoch
				nw.assignRate(c, m)
				left--
			}
		}
	}
	nw.tieLinks = ties[:0]
	nw.actLinks = act[:0]
}

// capKey is one unassigned conn's window cap in a solve's cap rounds: ui
// indexes the solve's unassigned slice, id (the conn id) breaks cap ties.
// Flat keys keep the cap scan off the Conn structs.
type capKey struct {
	cap    float64
	id, ui int32
}

// appendCapKeys appends a key for every conn in unassigned not yet solved
// in this epoch.
func appendCapKeys(keys []capKey, unassigned []*Conn, epoch uint32) []capKey {
	for ui, c := range unassigned {
		if c.solved != epoch {
			keys = append(keys, capKey{cap: c.rateCap, id: int32(c.id), ui: int32(ui)})
		}
	}
	return keys
}

// takeCapped removes every key with cap <= m from keys and appends those
// whose conn is still unsolved in this epoch to due, sorted by (cap, id);
// the other keys are compacted in place. It returns the remaining keys,
// the batch, and the smallest cap left (+Inf if none). A conn already
// drained through a bottleneck link is dropped here rather than sorted
// and skipped: on a WAN fleet most conns whose cap the water level
// passes were fixed at a lower share long before.
func takeCapped(keys, due []capKey, m float64, unassigned []*Conn, epoch uint32) (rest, batch []capKey, minCap float64) {
	minCap = math.Inf(1)
	n := 0
	for _, k := range keys {
		if k.cap <= m {
			if unassigned[k.ui].solved != epoch {
				due = append(due, k)
			}
			continue
		}
		if k.cap < minCap {
			minCap = k.cap
		}
		keys[n] = k
		n++
	}
	slices.SortFunc(due, func(a, b capKey) int {
		if a.cap != b.cap {
			if a.cap < b.cap {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.id, b.id)
	})
	return keys[:n], due, minCap
}
