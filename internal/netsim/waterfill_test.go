package netsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gfs/internal/sim"
	"gfs/internal/units"
)

// refCapLess and refCapSiftDown are the pointer min-heap over conns that
// the cap rounds replaced, kept as the reference order: window cap, conn
// id breaking ties.
func refCapLess(a, b *Conn) bool {
	if a.rateCap != b.rateCap {
		return a.rateCap < b.rateCap
	}
	return a.id < b.id
}

func refCapSiftDown(h []*Conn, i int) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && refCapLess(h[r], h[j]) {
			j = r
		}
		if !refCapLess(h[j], h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// capRoundSequence replays one solve's cap rounds over conns and returns
// the assignment sequence: a conn id per cap assignment, and -1-id per
// conn a (simulated) bottleneck drain fixes between rounds. The water
// level rises (or holds) round by round; the first cap round comes at a
// random round, so some conns are already solved when the keys (or the
// heap) are built. useHeap selects the reference pointer heap.
func capRoundSequence(t *testing.T, conns []*Conn, seed int64, useHeap bool) []int {
	t.Helper()
	const epoch = 7
	for _, c := range conns {
		c.solved = 0
	}
	rng := rand.New(rand.NewSource(seed))
	var seq []int
	var heap []*Conn
	var keys, due []capKey
	built := false
	firstCapRound := rng.Intn(4)
	m := 0.0
	for round := 0; round < 40; round++ {
		for k := rng.Intn(4); k > 0; k-- {
			if c := conns[rng.Intn(len(conns))]; c.solved != epoch {
				c.solved = epoch
				seq = append(seq, -1-c.id)
			}
		}
		switch r := rng.Intn(6); {
		case round == 39:
			m = math.Inf(1) // drains the +Inf caps too
		case r == 0:
			// the level holds
		case r < 3:
			m = float64(1 + rng.Intn(12)) // exactly a duplicated cap value
		default:
			m += rng.Float64() * 3
		}
		if round < firstCapRound {
			continue
		}
		if useHeap {
			if !built {
				built = true
				heap = append([]*Conn(nil), conns...)
				for i := len(heap)/2 - 1; i >= 0; i-- {
					refCapSiftDown(heap, i)
				}
			}
			for len(heap) > 0 && heap[0].rateCap <= m {
				c := heap[0]
				n := len(heap) - 1
				heap[0] = heap[n]
				heap = heap[:n]
				if n > 1 {
					refCapSiftDown(heap, 0)
				}
				if c.solved == epoch {
					continue
				}
				c.solved = epoch
				seq = append(seq, c.id)
			}
			continue
		}
		if !built {
			built = true
			keys = appendCapKeys(nil, conns, epoch)
		}
		var minCap float64
		keys, due, minCap = takeCapped(keys, due[:0], m, conns, epoch)
		want := math.Inf(1)
		for _, k := range keys {
			if k.cap <= m {
				t.Fatalf("key with cap %v left behind at level %v", k.cap, m)
			}
			want = math.Min(want, k.cap)
		}
		if minCap != want {
			t.Fatalf("minCap %v, smallest remaining cap %v", minCap, want)
		}
		for _, k := range due {
			c := conns[k.ui]
			if c.solved == epoch {
				t.Fatalf("conn %d in the batch was already solved", c.id)
			}
			c.solved = epoch
			seq = append(seq, c.id)
		}
	}
	return seq
}

// TestCapRoundsMatchPointerHeap: the flat-key cap rounds must assign
// conns in exactly the order the pointer heap popped them — over key sets
// full of duplicate caps, +Inf caps, conns already solved before and
// between rounds, and a water level that rises and holds.
func TestCapRoundsMatchPointerHeap(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		ids := rng.Perm(n) // unassigned order is not id order
		conns := make([]*Conn, n)
		for i := range conns {
			c := &Conn{id: ids[i]}
			switch rng.Intn(10) {
			case 0:
				c.rateCap = math.Inf(1)
			case 1:
				c.rateCap = rng.Float64() * 14
			default:
				c.rateCap = float64(1 + rng.Intn(12))
			}
			conns[i] = c
		}
		ref := capRoundSequence(t, conns, seed, true)
		got := capRoundSequence(t, conns, seed, false)
		if fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Fatalf("seed %d: cap rounds assign\n%v\nreference heap\n%v", seed, got, ref)
		}
		for _, c := range conns {
			if c.solved != 7 {
				t.Fatalf("seed %d: conn %d (cap %v) never assigned", seed, c.id, c.rateCap)
			}
		}
	}
}

// solverDigest runs a seeded scenario built to expose any reordering in
// the exact solver: every conn has the same window and slow-start ramp
// (identical caps, so cap ties break by conn id), every message has the
// same size (completions tie at one instant), and the shared WAN link
// flaps down and up mid-run. It hashes every delivery (conn id, virtual
// ns) and, after each event that ran a solve, every conn's rate bits.
func solverDigest(t *testing.T, sched sim.Scheduler) string {
	t.Helper()
	s := sim.NewWith(sched)
	nw := New(s)
	rng := rand.New(rand.NewSource(42))
	west, east := nw.NewNode("west"), nw.NewNode("east")
	wan, _ := nw.DuplexLink("wan", west, east, 4*units.Gbps, 5*sim.Millisecond)
	var clients, servers []*Node
	for i := 0; i < 12; i++ {
		h := nw.NewNode(fmt.Sprintf("c%d", i))
		rate := units.Gbps
		if i%2 == 1 {
			rate = 200 * units.Mbps
		}
		nw.DuplexLink(h.Name(), h, west, rate, 50*sim.Microsecond)
		clients = append(clients, h)
	}
	for i := 0; i < 4; i++ {
		h := nw.NewNode(fmt.Sprintf("s%d", i))
		nw.DuplexLink(h.Name(), h, east, 2*units.Gbps, 50*sim.Microsecond)
		servers = append(servers, h)
	}
	// A 256 KiB window over the 10.2 ms RTT caps a conn at ~26 MB/s,
	// just above its ~21 MB/s share of the WAN: caps bind in slow start
	// and again whenever departures raise the share.
	tcp := TCPConfig{MaxWindow: 256 * units.KiB, InitWindow: 32 * units.KiB}
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	deliveries := 0
	var starts []func()
	for i, cl := range clients {
		for j := 0; j < 2; j++ {
			c := nw.DialTCP(servers[(i+j)%len(servers)], cl, tcp)
			left := 6 + rng.Intn(6)
			var send func()
			send = func() {
				c.Send(units.MiB, func() {
					deliveries++
					put(uint64(c.id))
					put(uint64(s.Now()))
					if left--; left > 0 {
						send()
					}
				})
			}
			starts = append(starts, send)
		}
	}
	// Start in reverse dial order: conns that start at one instant join
	// their links against conn-id order, so drains (link order) and cap
	// rounds (id order) re-arm tied completions in opposite orders.
	for i := len(starts) - 1; i >= 0; i-- {
		s.Schedule(sim.Time(rng.Intn(4))*sim.Millisecond, starts[i])
	}
	s.Schedule(60*sim.Millisecond, func() { wan.SetDown(true) })
	s.Schedule(75*sim.Millisecond, func() { wan.SetDown(false) })
	solves := uint64(0)
	for s.Step() {
		if st := nw.SolverStats(); st.FullSolves != solves {
			solves = st.FullSolves
			for _, c := range nw.conns {
				put(math.Float64bits(c.rate))
			}
		}
	}
	if deliveries < 200 || solves < 100 {
		t.Fatalf("scenario too small: %d deliveries, %d solves", deliveries, solves)
	}
	put(solves)
	return hex.EncodeToString(h.Sum(nil))
}

// solverGoldenDigest is solverDigest's value computed with the solver
// that swept window caps with a pointer heap, re-armed completions by
// Cancel then Arm and scanned every component link each round. The cap
// rounds, Rearm and the drained-link scan list must not move a bit.
const solverGoldenDigest = "703137c7fb402404b9b68e828b738fad3879f5031fe9f1b91e59b8496ee48b32"

// TestSolverGoldenDigest pins the exact solver's deliveries and rates on
// both schedulers.
func TestSolverGoldenDigest(t *testing.T) {
	for _, sched := range []sim.Scheduler{sim.NewCalendarScheduler(), sim.NewHeapScheduler()} {
		if got := solverDigest(t, sched); got != solverGoldenDigest {
			t.Errorf("%s scheduler: solver digest %s, want %s", sched.Name(), got, solverGoldenDigest)
		}
	}
}

// TestAllocsRecompute: a steady-state exact recompute in which window
// caps bind — cap rounds, bottleneck drains and completion re-arms —
// allocates nothing once its scratch arrays have grown.
func TestAllocsRecompute(t *testing.T) {
	s := sim.New()
	nw := New(s)
	sw, dst := nw.NewNode("sw"), nw.NewNode("dst")
	nw.DuplexLink("trunk", sw, dst, 10*units.Gbps, 10*sim.Millisecond)
	var conns []*Conn
	s.Schedule(0, func() {
		for i := 0; i < 32; i++ {
			h := nw.NewNode(fmt.Sprintf("h%d", i))
			nw.DuplexLink(h.Name(), h, sw, units.Gbps, 100*sim.Microsecond)
			// 256 KiB over the 20.2 ms RTT caps a conn at ~13 MB/s, well
			// below its ~39 MB/s share of the trunk.
			win := 16 * units.MiB
			if i%2 == 0 {
				win = 256 * units.KiB
			}
			c := nw.DialTCP(h, dst, TCPConfig{MaxWindow: win})
			c.Send(100*units.GB, nil) // long-lived: stays active
			conns = append(conns, c)
		}
	})
	s.RunUntil(100 * sim.Millisecond)
	capped := 0
	for _, c := range conns {
		if c.rate == c.rateCap {
			capped++
		}
	}
	if capped < len(conns)/2 {
		t.Fatalf("only %d of %d conns sit at their window cap", capped, len(conns))
	}
	flip := conns[0]
	allocs := testing.AllocsPerRun(200, func() {
		// Toggle one capped conn's window: the uncapped conns' share of
		// the trunk moves down and back up, so each solve re-rates them
		// and moves their completions later, then earlier.
		if flip.cwnd == float64(256*units.KiB) {
			flip.cwnd = float64(512 * units.KiB)
		} else {
			flip.cwnd = float64(256 * units.KiB)
		}
		flip.updateRateCap()
		for _, l := range flip.path {
			nw.linkChanged(l)
		}
		nw.doRecompute()
	})
	if allocs != 0 {
		t.Fatalf("steady-state recompute allocates %.1f times per solve, want 0", allocs)
	}
}
