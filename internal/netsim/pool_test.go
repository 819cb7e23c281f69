package netsim

import (
	"testing"
	"unsafe"

	"gfs/internal/sim"
	"gfs/internal/trace"
	"gfs/internal/units"
)

// echoPair is rpcPair with an "echo" service that copies the payload at
// entry, then blocks for d before answering, so a recycled record would
// show up as a corrupted payload.
func echoPair(d sim.Time) (*sim.Sim, *Endpoint, *Endpoint) {
	s, client, server := rpcPair(sim.Millisecond)
	server.Handle("echo", func(p *sim.Proc, req *Request) Response {
		v := req.Payload
		if d > 0 {
			p.Sleep(d)
		}
		return Response{Size: 64, Payload: v}
	})
	return s, client, server
}

// checkPool fails if the call-record free list holds a record twice or a
// record not marked pooled.
func checkPool(t *testing.T, nw *Network) {
	t.Helper()
	seen := make(map[*rpcCall]bool)
	for _, rc := range nw.callFree {
		if seen[rc] {
			t.Fatalf("record %p on the free list twice", rc)
		}
		if !rc.pooled {
			t.Fatalf("record %p on the free list but not marked pooled", rc)
		}
		seen[rc] = true
	}
}

func TestCallReissuedFromWakeReusesRecord(t *testing.T) {
	s, client, server := echoPair(sim.Millisecond)
	var got []any
	var first *rpcCall
	s.Go("caller", func(p *sim.Proc) {
		// The first Call returns from inside the response callback (wake
		// resumes the caller synchronously); the second is issued before
		// that callback has returned and must reuse the freed record.
		got = append(got, client.Call(p, server, "echo", 64, "one").Payload)
		first = client.net.callFree[len(client.net.callFree)-1]
		got = append(got, client.Call(p, server, "echo", 64, "two").Payload)
	})
	s.Run()
	if len(got) != 2 || got[0] != "one" || got[1] != "two" {
		t.Fatalf("payloads = %v, want [one two]", got)
	}
	if n := len(client.net.callFree); n != 1 || client.net.callFree[0] != first {
		t.Fatalf("free list = %d records, want the one record reused", n)
	}
	checkPool(t, client.net)
}

func TestConcurrentCallsKeepTheirOwnRecords(t *testing.T) {
	s, client, server := echoPair(3 * sim.Millisecond)
	const n = 16
	finished := 0
	for i := 0; i < n; i++ {
		s.Go("caller", func(p *sim.Proc) {
			for round := 0; round < 3; round++ {
				v := i*100 + round
				if r := client.Call(p, server, "echo", 64, v).Payload; r != v {
					t.Errorf("caller %d round %d: payload %v", i, round, r)
				}
			}
			finished++
		})
	}
	s.Run()
	if finished != n {
		t.Fatalf("%d of %d callers finished", finished, n)
	}
	if len(client.net.callFree) != n {
		t.Errorf("free list = %d records, want %d (one per concurrent caller)", len(client.net.callFree), n)
	}
	checkPool(t, client.net)
}

func TestCallKilledCallerLeavesPoolIntact(t *testing.T) {
	// Measure when the response to an undisturbed call lands.
	s, client, server := echoPair(20 * sim.Millisecond)
	var landed sim.Time
	s.Go("probe", func(p *sim.Proc) {
		client.Call(p, server, "echo", 64, nil)
		landed = p.Now()
	})
	s.Run()

	for _, tc := range []struct {
		name   string
		killAt sim.Time
	}{
		{"kill while the handler runs", 5 * sim.Millisecond},
		// Scheduled before the response is issued, so at the shared
		// instant the kill runs first and the response's wake is the
		// one that resumes the killed caller.
		{"kill at the response instant", landed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, client, server := echoPair(20 * sim.Millisecond)
			returned := false
			caller := s.Go("caller", func(p *sim.Proc) {
				client.Call(p, server, "echo", 64, "lost")
				returned = true
			})
			s.At(tc.killAt, caller.Kill)
			s.Run()
			if returned {
				t.Fatal("killed caller returned from Call")
			}
			if !caller.Done() {
				t.Fatal("killed caller not done")
			}
			// The killed caller's record never comes back; the pool is
			// empty, not corrupted, and serves the next caller.
			if len(client.net.callFree) != 0 {
				t.Fatalf("free list = %d records, want 0", len(client.net.callFree))
			}
			var got []any
			s.Go("next", func(p *sim.Proc) {
				for _, v := range []string{"a", "b"} {
					got = append(got, client.Call(p, server, "echo", 64, v).Payload)
				}
			})
			s.Run()
			if len(got) != 2 || got[0] != "a" || got[1] != "b" {
				t.Fatalf("payloads after kill = %v", got)
			}
			if len(client.net.callFree) != 1 {
				t.Fatalf("free list = %d records, want 1", len(client.net.callFree))
			}
			checkPool(t, client.net)
		})
	}
}

func TestFreeCallTwicePanics(t *testing.T) {
	nw := New(sim.New())
	rc := nw.newCall()
	nw.freeCall(rc)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	nw.freeCall(rc)
}

// queuePair is one conn over a 1 Gb/s link with no propagation delay.
func queuePair() (*sim.Sim, *Conn) {
	s := sim.New()
	nw := New(s)
	a, b := nw.NewNode("a"), nw.NewNode("b")
	nw.DuplexLink("ab", a, b, units.Gbps, 0)
	return s, nw.Dial(a, b)
}

func TestConnQueueFIFOAcrossCompaction(t *testing.T) {
	s, c := queuePair()
	var order []int
	send := func(i int) { c.Send(units.MiB, func() { order = append(order, i) }) }
	for i := 0; i < 4; i++ {
		send(i)
	}
	capBefore := cap(c.queue)
	// Each 1 MiB message takes ~8.4 ms at 1 Gb/s; stop after two.
	s.RunUntil(20 * sim.Millisecond)
	if c.Queued() != 2 || c.qhead != 2 {
		t.Fatalf("after partial drain: queued=%d qhead=%d, want 2 and 2", c.Queued(), c.qhead)
	}
	for i := 4; i < 4+capBefore-2; i++ {
		send(i) // the first of these finds the array full and compacts it
	}
	if cap(c.queue) != capBefore || c.qhead != 0 {
		t.Fatalf("after refill: cap=%d (was %d) qhead=%d, want compaction in place", cap(c.queue), capBefore, c.qhead)
	}
	send(100) // grows
	s.Run()
	var want []int
	for i := 0; i < 4+capBefore-2; i++ {
		want = append(want, i)
	}
	want = append(want, 100)
	if len(order) != len(want) {
		t.Fatalf("delivered %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("delivered %v, want %v", order, want)
		}
	}
	if c.Queued() != 0 || c.qhead != 0 || len(c.queue) != 0 {
		t.Fatalf("drained conn: queued=%d qhead=%d len=%d", c.Queued(), c.qhead, len(c.queue))
	}
}

func TestConnQueueReusesArrayAfterDrain(t *testing.T) {
	s, c := queuePair()
	for i := 0; i < 8; i++ {
		c.Send(units.KiB, nil)
	}
	s.Run()
	if len(c.queue) != 0 || cap(c.queue) < 8 {
		t.Fatalf("drained conn: len=%d cap=%d, want an empty queue keeping its array", len(c.queue), cap(c.queue))
	}
	base := unsafe.SliceData(c.queue)
	for i := 0; i < 8; i++ {
		c.Send(units.KiB, nil)
	}
	if unsafe.SliceData(c.queue) != base {
		t.Fatal("refill reallocated the queue's backing array")
	}
	s.Run()
}

// The allocation guards below pin the steady-state cost of the RPC and
// message paths; CI runs them by name.

func TestAllocsCallRoundTrip(t *testing.T) {
	s, client, server := echoPair(0)
	var allocs float64
	s.Go("caller", func(p *sim.Proc) {
		allocs = testing.AllocsPerRun(200, func() {
			client.Call(p, server, "echo", 64, nil)
		})
	})
	s.Run()
	t.Logf("blocking Call round trip: %.2f allocs", allocs)
	// What remains is the handler's sim.Proc and its wake func.
	if allocs > 2 {
		t.Errorf("blocking Call round trip: %.1f allocs, want <= 2", allocs)
	}
}

func TestAllocsSendDeliver(t *testing.T) {
	s, c := queuePair()
	delivered := 0
	onDelivered := func() { delivered++ }
	allocs := testing.AllocsPerRun(200, func() {
		c.SendCtx(trace.Ctx{}, units.KiB, onDelivered)
		c.SendCtx(trace.Ctx{}, units.KiB, onDelivered)
		s.Run()
	})
	if delivered != 2*201 {
		t.Fatalf("delivered %d messages, want %d", delivered, 2*201)
	}
	if allocs != 0 {
		t.Errorf("steady-state SendCtx/deliver: %.1f allocs, want 0", allocs)
	}
}
