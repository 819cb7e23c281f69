package netsim

import (
	"fmt"

	"gfs/internal/metrics"
	"gfs/internal/sim"
	"gfs/internal/trace"
	"gfs/internal/units"
)

// Request is an in-flight RPC as seen by a service handler.
type Request struct {
	From    *Endpoint
	Service string
	Size    units.Bytes // wire size of the request
	Payload any
	Ctx     trace.Ctx // causal context: the op this RPC serves, parented to the RPC span
}

// Response is what a handler returns.
type Response struct {
	Size    units.Bytes // wire size of the response
	Payload any
	Err     error
}

// Handler serves one request. It runs in its own simulated process and may
// block (on disk resources, nested RPCs, etc.). The *Request, and the
// Request it points to, are valid only until the handler returns: the
// record carrying them is recycled for a later call, so a handler that
// needs the payload afterwards must copy it out first.
type Handler func(p *sim.Proc, req *Request) Response

// service is a registered handler and the name its serving processes run
// under, built once at Handle rather than per call.
type service struct {
	h    Handler
	proc string // "rpc:" + service name
}

// peerConns is an endpoint's conn pool towards one peer, served
// round-robin.
type peerConns struct {
	conns []*Conn
	next  int
}

// Endpoint gives a node an RPC personality: named services, plus Call for
// outbound requests. Each (endpoint, peer) pair shares a pool of conns,
// modeling the fixed number of TCP connections a real NSD client keeps per
// server.
type Endpoint struct {
	net      *Network
	node     *Node
	services map[string]service

	connsPerPeer int
	out          map[*Endpoint]*peerConns // request conns, this -> peer

	inFlight     int // outbound RPCs issued but not yet answered
	peakInFlight int // high-water mark of inFlight
}

// HeaderBytes is the fixed protocol overhead added to every request and
// response.
const HeaderBytes = 64

// NewEndpoint wraps a node for RPC. connsPerPeer is the number of parallel
// conns to each peer (>=1); more conns raise the aggregate window over long
// fat networks, as parallel TCP streams do.
func (nw *Network) NewEndpoint(node *Node, connsPerPeer int) *Endpoint {
	if connsPerPeer < 1 {
		connsPerPeer = 1
	}
	return &Endpoint{
		net:          nw,
		node:         node,
		services:     make(map[string]service),
		connsPerPeer: connsPerPeer,
		out:          make(map[*Endpoint]*peerConns),
	}
}

// Node returns the underlying network node.
func (e *Endpoint) Node() *Node { return e.node }

// InFlight returns the number of outbound RPCs issued from this endpoint
// whose responses have not yet arrived — the depth of the request
// pipeline this endpoint is keeping on the wire.
func (e *Endpoint) InFlight() int { return e.inFlight }

// PeakInFlight returns the high-water mark of InFlight over the
// endpoint's lifetime: how deep the prefetch/write-behind pipeline
// actually got, which is what hides the bandwidth-delay product.
func (e *Endpoint) PeakInFlight() int { return e.peakInFlight }

// Handle registers a service handler by name.
func (e *Endpoint) Handle(name string, h Handler) {
	if _, dup := e.services[name]; dup {
		panic(fmt.Sprintf("netsim: duplicate service %q on %s", name, e.node))
	}
	e.services[name] = service{h: h, proc: "rpc:" + name}
}

func (e *Endpoint) connTo(peer *Endpoint) *Conn {
	pc := e.out[peer]
	if pc == nil {
		pc = &peerConns{conns: make([]*Conn, e.connsPerPeer)}
		for i := range pc.conns {
			pc.conns[i] = e.net.Dial(e.node, peer.node)
		}
		e.out[peer] = pc
	}
	c := pc.conns[pc.next]
	pc.next = (pc.next + 1) % len(pc.conns)
	return c
}

// rpcCall is one RPC from issue to response delivery. Records are pooled
// on Network.callFree, and the three stage callbacks are method values
// bound once when a record is first built, so a round trip allocates no
// closures. An asynchronous call's record is freed when its response
// lands; a blocking Call's record is freed by the caller after it wakes.
type rpcCall struct {
	e, peer  *Endpoint
	svc      service
	req      Request // handed to the handler; req.Ctx is the RPC's child context
	resp     Response
	respConn *Conn

	ctx    trace.Ctx // the caller's context, parent of the RPC span
	sid    int64
	issued sim.Time
	tr     *trace.Tracer
	reg    *metrics.Registry

	onDone func(Response) // asynchronous completion
	waker  func()         // blocking Call: resumes the caller
	done   bool           // response delivered (blocking Call only)
	pooled bool           // on the free list

	stages rpcStages
}

// rpcStages holds a record's stage callbacks, preserved across reuse.
type rpcStages struct {
	deliverReq  func()
	serve       func(*sim.Proc)
	deliverResp func()
}

// newCall draws a call record from the free pool.
func (nw *Network) newCall() *rpcCall {
	if n := len(nw.callFree); n > 0 {
		rc := nw.callFree[n-1]
		nw.callFree[n-1] = nil
		nw.callFree = nw.callFree[:n-1]
		rc.pooled = false
		return rc
	}
	rc := &rpcCall{}
	rc.stages = rpcStages{deliverReq: rc.deliverReq, serve: rc.serve, deliverResp: rc.deliverResp}
	return rc
}

// freeCall recycles a finished call record.
func (nw *Network) freeCall(rc *rpcCall) {
	if rc.pooled {
		panic("netsim: RPC call record freed twice")
	}
	*rc = rpcCall{stages: rc.stages, pooled: true}
	nw.callFree = append(nw.callFree, rc)
}

// Call performs a blocking RPC from process p: the request's bytes cross
// the network, the handler runs on the peer (possibly blocking), and the
// response's bytes cross back. It returns the handler's response. The
// RPC inherits p's causal context, so its span parents into whatever
// operation p is executing. A caller killed while blocked leaves its
// record unreturned; the late response finds the process done and the
// record goes to the garbage collector.
func (e *Endpoint) Call(p *sim.Proc, peer *Endpoint, service string, reqSize units.Bytes, payload any) Response {
	rc := e.issue(p.Ctx(), peer, service, reqSize, payload, nil, p.Suspend())
	if !rc.done {
		p.Block()
	}
	resp := rc.resp
	e.net.freeCall(rc)
	return resp
}

// Go performs a non-blocking RPC with no causal context; onDone fires in
// event context when the response arrives. Useful for keeping many
// requests in flight (the read-ahead pipeline at the heart of WAN-GFS
// performance).
func (e *Endpoint) Go(peer *Endpoint, service string, reqSize units.Bytes, payload any, onDone func(Response)) {
	e.GoCtx(trace.Ctx{}, peer, service, reqSize, payload, onDone)
}

// GoCtx is Go with an explicit causal context. The RPC's span ID is
// allocated at issue time; the request flow, the handler process and the
// response flow all run under {ctx.Op, rpc span}, so everything the RPC
// causes — nested calls, disk service, wire transfers — hangs off it in
// the op tree.
func (e *Endpoint) GoCtx(ctx trace.Ctx, peer *Endpoint, service string, reqSize units.Bytes, payload any, onDone func(Response)) {
	e.issue(ctx, peer, service, reqSize, payload, onDone, nil)
}

// issue fills a call record and sends its request. Exactly one of onDone
// (asynchronous) and waker (blocking Call) is set. The returned record
// belongs to the caller only in the blocking case.
func (e *Endpoint) issue(ctx trace.Ctx, peer *Endpoint, service string, reqSize units.Bytes, payload any, onDone func(Response), waker func()) *rpcCall {
	svc, ok := peer.services[service]
	if !ok {
		panic(fmt.Sprintf("netsim: no service %q on %s", service, peer.node))
	}
	nw := e.net
	rc := nw.newCall()
	rc.e, rc.peer, rc.svc = e, peer, svc
	rc.ctx, rc.onDone, rc.waker = ctx, onDone, waker
	tr, reg := nw.Sim.Tracer(), nw.Metrics
	rc.tr, rc.reg = tr, reg
	if tr != nil || reg != nil {
		rc.issued = nw.Sim.Now()
	}
	var child trace.Ctx
	if tr != nil {
		rc.sid = tr.NewSpanID()
		child = trace.Ctx{Op: ctx.Op, Parent: rc.sid}
	}
	e.inFlight++
	if e.inFlight > e.peakInFlight {
		e.peakInFlight = e.inFlight
	}
	if reg != nil {
		reg.Gauge("rpc.in_flight").Set(float64(e.inFlight))
	}
	reqConn := e.connTo(peer)
	rc.respConn = peer.connTo(e)
	rc.req = Request{From: e, Service: service, Size: reqSize, Payload: payload, Ctx: child}
	reqConn.SendCtx(child, reqSize+HeaderBytes, rc.stages.deliverReq)
	return rc
}

// deliverReq runs when the request's last byte reaches the peer: it starts
// the handler process.
func (rc *rpcCall) deliverReq() {
	rc.peer.net.Sim.Go(rc.svc.proc, rc.stages.serve)
}

// serve is the handler process body; it sends the response back.
func (rc *rpcCall) serve(sp *sim.Proc) {
	sp.SetCtx(rc.req.Ctx)
	rc.resp = rc.svc.h(sp, &rc.req)
	rc.respConn.SendCtx(rc.req.Ctx, rc.resp.Size+HeaderBytes, rc.stages.deliverResp)
}

// deliverResp runs when the response's last byte reaches the caller.
func (rc *rpcCall) deliverResp() {
	e := rc.e
	e.inFlight--
	if rc.reg != nil {
		rc.reg.Gauge("rpc.in_flight").Set(float64(e.inFlight))
	}
	if rc.tr != nil || rc.reg != nil {
		e.recordRPC(rc.tr, rc.reg, rc.peer, rc.req.Service, rc.issued, rc.req.Size, &rc.resp, rc.ctx, rc.sid)
	}
	if wake := rc.waker; wake != nil {
		// wake resumes the caller synchronously; it copies the response,
		// frees the record and may already be reusing it for its next
		// call by the time wake returns, so rc is not touched again.
		rc.done = true
		wake()
		return
	}
	onDone, resp := rc.onDone, rc.resp
	e.net.freeCall(rc)
	if onDone != nil {
		onDone(resp)
	}
}

// recordRPC emits the request/response span and registry samples for one
// completed RPC. Kept out of Go's hot closure so the disabled path pays
// only the nil checks.
func (e *Endpoint) recordRPC(tr *trace.Tracer, reg *metrics.Registry, peer *Endpoint, service string, issued sim.Time, reqSize units.Bytes, resp *Response, ctx trace.Ctx, sid int64) {
	now := e.net.Sim.Now()
	if tr != nil {
		args := []trace.Arg{
			trace.I("req_bytes", int64(reqSize)),
			trace.I("resp_bytes", int64(resp.Size)),
		}
		if resp.Err != nil {
			args = append(args, trace.S("err", resp.Err.Error()))
		}
		tr.SpanCtx(ctx, sid, "rpc", service, e.node.name+"->"+peer.node.name,
			int64(issued), int64(now), args...)
	}
	if reg != nil {
		reg.Counter("rpc.calls").Inc()
		if resp.Err != nil {
			reg.Counter("rpc.errors").Inc()
		}
		reg.Counter("rpc.req_bytes").Add(uint64(reqSize + HeaderBytes))
		reg.Counter("rpc.resp_bytes").Add(uint64(resp.Size + HeaderBytes))
		reg.Histogram("rpc.latency_ns").Observe(float64(now - issued))
		reg.Histogram("rpc.latency_ns." + service).Observe(float64(now - issued))
	}
}
