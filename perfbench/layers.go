package main

import (
	"fmt"
	"strings"
)

// counters is a snapshot of every per-layer counter the program exposes
// through public accessors; layers() reports deltas over the timed phase.
type counters struct {
	mount mountCounts

	tokenGrants, tokenRevokes, metaOps uint64

	solves, regionConns uint64
	linkBytes, wanBytes int64

	nsdOut, nsdIn []int64 // per NSD server, in site order

	raidReads, raidWrites, raidRMW, raidFull uint64
	raidBusyNs                               int64
	raidSets                                 int
}

// mountCounts sums the Mount.Stats fields the report uses over every mount.
type mountCounts struct {
	cacheHits, cacheMisses                               uint64
	prefetchIssued, prefetchHits, prefetchUnused         uint64
	writebacks, writeStalls, gatheredFlushes             uint64
	arenaHits, arenaMisses, shardMetaOps, shardFallbacks uint64
}

func (it *iteration) snapshot() counters {
	var c counters
	st := it.nw.SolverStats()
	c.solves = st.FullSolves + st.LocalSolves
	c.regionConns = st.RegionConns
	for _, l := range it.nw.Links() {
		c.linkBytes += int64(l.BytesDelivered())
	}
	if it.wan != nil {
		c.wanBytes = int64(it.wan.BytesDelivered())
	}
	for _, site := range it.sites {
		for _, cl := range site.Clients {
			for _, m := range cl.Mounts() {
				s := m.Stats()
				c.mount.cacheHits += s.CacheHits
				c.mount.cacheMisses += s.CacheMisses
				c.mount.prefetchIssued += s.PrefetchIssued
				c.mount.prefetchHits += s.PrefetchHits
				c.mount.prefetchUnused += s.PrefetchUnused
				c.mount.writebacks += s.Writebacks
				c.mount.writeStalls += s.WriteStalls
				c.mount.gatheredFlushes += s.GatheredFlushes
				c.mount.arenaHits += s.ArenaHits
				c.mount.arenaMisses += s.ArenaMisses
				c.mount.shardMetaOps += s.ShardMetaOps
				c.mount.shardFallbacks += s.ShardFallbacks
			}
		}
		if fs := site.FS; fs != nil {
			g, r := fs.TokenStats()
			c.tokenGrants += g
			c.tokenRevokes += r
			c.metaOps += fs.MetaOps()
			for _, srv := range fs.Servers() {
				out, in := srv.BytesServed()
				c.nsdOut = append(c.nsdOut, int64(out))
				c.nsdIn = append(c.nsdIn, int64(in))
			}
		}
		if site.Fabric == nil {
			continue
		}
		for _, arr := range site.Fabric.Arrays {
			for _, set := range arr.Sets {
				c.raidReads += set.Reads()
				c.raidWrites += set.Writes()
				c.raidRMW += set.RMWWrites()
				c.raidFull += set.FullStripeWrites()
				c.raidBusyNs += int64(set.BusyTime())
				c.raidSets++
			}
		}
	}
	return c
}

// engineKinds are the event kinds the sim layer reports, registered by
// the sim and netsim packages.
var engineKinds = []string{
	"sim.proc_start", "sim.timer", "sim.wake",
	"net.recompute", "net.flow_completion", "net.cwnd_bump", "net.deliver", "net.rpc_timer",
}

// layers returns the traced run's per-layer numbers for this iteration.
// cpu.* and trace.overhead_pct need several iterations; the parent adds
// them.
func (it *iteration) layers() map[string]float64 {
	b, a := it.before, it.after
	elapsed := float64(it.simT1 - it.simT0)
	out := map[string]float64{}

	e := it.engine
	out["sim.events"] = float64(e.Events)
	out["sim.events_per_wall_s"] = e.EventsPerSec
	out["sim.allocs_per_event"] = e.AllocsPerEvent
	out["sim.peak_pending"] = float64(e.PeakPending)
	for _, k := range engineKinds {
		out["sim.kind."+k+".count"] = 0
		out["sim.kind."+k+".wall_pct"] = 0
	}
	for _, k := range e.Kinds {
		if _, ok := out["sim.kind."+k.Name+".count"]; !ok {
			continue
		}
		out["sim.kind."+k.Name+".count"] = float64(k.Count)
		out["sim.kind."+k.Name+".wall_pct"] = pct(float64(k.EstWallNs), float64(e.WallNs))
	}

	out["net.solves"] = float64(a.solves - b.solves)
	out["net.region_conns"] = float64(a.regionConns - b.regionConns)
	out["net.conns_per_solve"] = ratio(out["net.region_conns"], out["net.solves"])
	out["net.link_bytes"] = float64(a.linkBytes - b.linkBytes)
	out["net.wan_util_pct"] = 0
	if it.wan != nil {
		capBytes := float64(it.wan.Capacity()) / 8 * elapsed / 1e9
		out["net.wan_util_pct"] = pct(float64(a.wanBytes-b.wanBytes), capBytes)
	}

	m, n := a.mount, b.mount
	hits, misses := float64(m.cacheHits-n.cacheHits), float64(m.cacheMisses-n.cacheMisses)
	out["core.cache_hits"] = hits
	out["core.cache_misses"] = misses
	out["core.hit_ratio"] = ratio(hits, hits+misses)
	issued := float64(m.prefetchIssued - n.prefetchIssued)
	out["core.prefetch_issued"] = issued
	out["core.prefetch_useful_ratio"] = ratio(float64(m.prefetchHits-n.prefetchHits), issued)
	out["core.prefetch_unused"] = float64(m.prefetchUnused - n.prefetchUnused)
	out["core.writebacks"] = float64(m.writebacks - n.writebacks)
	out["core.write_stalls"] = float64(m.writeStalls - n.writeStalls)
	out["core.gathered_flushes"] = float64(m.gatheredFlushes - n.gatheredFlushes)
	ah, am := float64(m.arenaHits-n.arenaHits), float64(m.arenaMisses-n.arenaMisses)
	out["core.arena_hit_ratio"] = ratio(ah, ah+am)

	out["core.token_grants"] = float64(a.tokenGrants - b.tokenGrants)
	out["core.token_revokes"] = float64(a.tokenRevokes - b.tokenRevokes)
	out["core.meta_ops"] = float64(a.metaOps - b.metaOps)
	out["core.shard_meta_ops"] = float64(m.shardMetaOps - n.shardMetaOps)
	out["core.shard_fallbacks"] = float64(m.shardFallbacks - n.shardFallbacks)
	for _, o := range []op{opCreate, opStat, opRemove} {
		lat := it.familyLatencies([]op{o})
		out[fmt.Sprintf("core.%s_p99_ms", opNames[o])] = float64(nearestRank(lat, 9900)) / 1e6
	}

	var sumOut, sumIn, maxServed float64
	for i := range a.nsdOut {
		o, in := float64(a.nsdOut[i]-b.nsdOut[i]), float64(a.nsdIn[i]-b.nsdIn[i])
		sumOut += o
		sumIn += in
		if o+in > maxServed {
			maxServed = o + in
		}
	}
	out["nsd.bytes_out"] = sumOut
	out["nsd.bytes_in"] = sumIn
	out["nsd.max_over_mean"] = 0
	if len(a.nsdOut) > 0 {
		out["nsd.max_over_mean"] = ratio(maxServed, (sumOut+sumIn)/float64(len(a.nsdOut)))
	}

	out["raid.reads"] = float64(a.raidReads - b.raidReads)
	out["raid.writes"] = float64(a.raidWrites - b.raidWrites)
	out["raid.rmw_writes"] = float64(a.raidRMW - b.raidRMW)
	out["raid.full_stripe_writes"] = float64(a.raidFull - b.raidFull)
	out["raid.rmw_ratio"] = ratio(out["raid.rmw_writes"], out["raid.writes"])
	out["raid.busy_pct"] = 0
	if a.raidSets > 0 {
		out["raid.busy_pct"] = pct(float64(a.raidBusyNs-b.raidBusyNs), float64(a.raidSets)*elapsed)
	}
	return out
}

// hostDependent reports whether an iteration's per-layer value is a host
// measurement rather than a count that repeats exactly for one seed.
func hostDependent(name string) bool {
	return strings.HasSuffix(name, ".wall_pct") || name == "sim.events_per_wall_s" || name == "sim.allocs_per_event"
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func pct(a, b float64) float64 { return 100 * ratio(a, b) }
