package main

import (
	"fmt"
	"math/rand"

	"gfs/internal/auth"
	"gfs/internal/core"
	"gfs/internal/experiments"
	"gfs/internal/netsim"
	"gfs/internal/san"
	"gfs/internal/sim"
	"gfs/internal/units"
)

// A workload stands up its sites (set-up, host-timed step by step) and
// returns the body of the simulated process that mounts, seeds and then
// runs the timed phase between it.startTimed and it.endTimed.
type workload struct {
	name  string
	build func(it *iteration) func(p *sim.Proc) error
}

var workloads = []workload{
	{"fig11-mpiio", buildFig11},
	{"wan-read", buildWANRead},
	{"metastorm", buildMetastorm},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// The configurations are the figure runners' own, resized only in bytes
// moved or cycles run, so a seed-0 run reproduces the runner's headline
// at the same config (see runners_test.go).

func fig11Config() experiments.ProductionConfig {
	c := experiments.DefaultProductionConfig()
	c.NodeCounts = []int{64}
	c.SizePer = c.MPIBlock // each rank owns exactly one 128 MB block
	return c
}

func wanConfig() experiments.ANLConfig {
	c := experiments.DefaultANLConfig()
	c.SizePer = 256 * units.MiB
	return c
}

func stormConfig() experiments.MetastormConfig {
	c := experiments.DefaultMetastormConfig()
	c.Shards = []int{4}
	c.Cycles = 60
	return c
}

// newEthernetNet matches the experiments package's LAN/WAN network:
// Ethernet framing efficiency and the fleet-scaled recompute throttle.
func newEthernetNet(s *sim.Sim) *netsim.Network {
	nw := netsim.New(s)
	nw.SolveTolerance = experiments.SolveToleranceValue()
	nw.LinkEfficiency = 0.94
	nw.MinRecomputeInterval = 200 * sim.Microsecond
	nw.RecomputePerConn = 400 * sim.Nanosecond
	return nw
}

// buildProductionSite is the §5 SDSC site: NSD servers on GbE in front of
// DS4100 RAID5 arrays.
func buildProductionSite(it *iteration, cfg experiments.ProductionConfig) *experiments.Site {
	var site *experiments.Site
	it.span("setup.cluster_s", func() { site = experiments.NewSite(it.s, it.nw, "sdsc") })
	it.span("setup.fs_s", func() {
		site.BuildFS(experiments.FSOptions{
			Name: "gpfs-prod", BlockSize: cfg.BlockSize,
			Servers: cfg.Servers, ServerEth: units.Gbps,
			Arrays:    cfg.Arrays,
			ArrayCfg:  san.DS4100Config(),
			ServerHBA: san.FC2, HBAsPer: 1,
		})
	})
	it.sites = append(it.sites, site)
	return site
}

// assignment is the only thing a seed changes: which mount each rank
// uses and how long each rank waits before its first call. Seed 0 is the
// identity with no stagger, the figure runners' order.
func assignment(seed int64, n int, maxStagger sim.Time) ([]int, []sim.Time) {
	perm := make([]int, n)
	stagger := make([]sim.Time, n)
	for i := range perm {
		perm[i] = i
	}
	if seed == 0 {
		return perm, stagger
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	for i := range stagger {
		stagger[i] = sim.Time(rng.Int63n(int64(maxStagger)))
	}
	return perm, stagger
}

// buildFig11 is the Fig. 11 production run at 64 nodes: an MPI-IO write
// pass, then a read pass with each rank shifted onto blocks another rank
// wrote, exactly as RunProductionScaling drives workload.MPIIO.
func buildFig11(it *iteration) func(p *sim.Proc) error {
	cfg := fig11Config()
	nodes := cfg.NodeCounts[0]
	site := buildProductionSite(it, cfg)
	var clients []*core.Client
	it.span("setup.fs_s", func() {
		ccfg := core.DefaultClientConfig()
		ccfg.ReadAhead = 16
		ccfg.WriteBehind = 16
		ccfg.TokenChunk = int64(cfg.MPIBlock / cfg.BlockSize)
		clients = site.AddClients(nodes, units.Gbps, ccfg)
	})
	perm, stagger := assignment(it.seed, nodes, sim.Millisecond)
	it.wantRead = int64(cfg.SizePer) * int64(nodes)
	it.wantWritten = it.wantRead

	return func(p *sim.Proc) error {
		var mounts []*core.Mount
		var err error
		it.span("setup.mount_s", func() { mounts, err = experiments.MountAll(p, clients, site.FS, "") })
		if err != nil {
			return err
		}
		if !it.startTimed(p) {
			return nil
		}
		defer it.endTimed(p)
		const path = "/ior.dat"
		// The collective open with create, as MPI rank 0 issues it.
		t0 := p.Now()
		_, err = mounts[perm[0]].Create(p, path, core.DefaultPerm)
		if it.log.done(opOpen, p, t0, err) != nil {
			return err
		}
		w := it.mpiPass(p, mounts, perm, stagger, 0, cfg, true)
		r := it.mpiPass(p, mounts, perm, stagger, 1, cfg, false)
		it.window["write"] = w
		it.window["read"] = r
		return nil
	}
}

// mpiPass is one workload.MPIIO pass with every call timed: rank r owns
// MPI blocks r, r+n, ... and drives them through mounts[perm[(r+shift)%n]].
// It returns the pass's simulated elapsed time as MPIIO measures it.
func (it *iteration) mpiPass(p *sim.Proc, mounts []*core.Mount, perm []int, stagger []sim.Time,
	shift int, cfg experiments.ProductionConfig, write bool) sim.Time {
	s := p.Sim()
	nt := len(mounts)
	total := cfg.SizePer * units.Bytes(nt)
	wg := sim.NewWaitGroup(s)
	t0 := p.Now()
	for rank := 0; rank < nt; rank++ {
		rank := rank
		m := mounts[perm[(rank+shift)%nt]]
		wg.Add(1)
		s.Go(fmt.Sprintf("mpi%d", rank), func(tp *sim.Proc) {
			defer wg.Done()
			if stagger[rank] > 0 {
				tp.Sleep(stagger[rank])
			}
			c0 := tp.Now()
			f, err := m.Open(tp, "/ior.dat")
			if it.log.done(opOpen, tp, c0, err) != nil {
				return
			}
			moved := units.Bytes(0)
			for blk := int64(rank); moved < cfg.SizePer; blk += int64(nt) {
				base := units.Bytes(blk) * cfg.MPIBlock
				if base >= total {
					break
				}
				for off := units.Bytes(0); off < cfg.MPIBlock && moved < cfg.SizePer; off += cfg.Transfer {
					ln := cfg.Transfer
					if off+ln > cfg.MPIBlock {
						ln = cfg.MPIBlock - off
					}
					if it.io(tp, f, write, base+off, ln) != nil {
						return
					}
					moved += ln
				}
			}
			if write {
				c0 = tp.Now()
				it.log.done(opClose, tp, c0, f.Close(tp))
			}
		})
	}
	wg.Wait(p)
	return p.Now() - t0
}

// io issues one timed read or write and counts its bytes.
func (it *iteration) io(p *sim.Proc, f *core.File, write bool, off, ln units.Bytes) error {
	t0 := p.Now()
	if write {
		if err := it.log.done(opWrite, p, t0, f.WriteAt(p, off, ln)); err != nil {
			return err
		}
		it.log.bytesWritten += int64(ln)
		return nil
	}
	if err := it.log.done(opRead, p, t0, f.ReadAt(p, off, ln)); err != nil {
		return err
	}
	it.log.bytesRead += int64(ln)
	return nil
}

// buildWANRead is the §5 ANL remote mount, as RunANL builds it: 32 ANL
// nodes mount the SDSC filesystem across the TeraGrid and each streams
// one seeded file in 1 MiB reads. Seeding is set-up.
func buildWANRead(it *iteration) func(p *sim.Proc) error {
	cfg := wanConfig()
	site := buildProductionSite(it, cfg.Production)
	var anl *experiments.Site
	it.span("setup.cluster_s", func() { anl = experiments.NewSite(it.s, it.nw, "anl") })
	it.sites = append(it.sites, anl)
	var device string
	var clients []*core.Client
	var seeder *core.Client
	it.span("setup.fs_s", func() {
		it.wan, _ = it.nw.DuplexLink("teragrid-anl", site.Switch, anl.Switch, cfg.WANRate, cfg.WANDelay)
		device = experiments.Peer(site, anl, auth.ReadWrite)
		ccfg := core.DefaultClientConfig()
		ccfg.ReadAhead = 32
		clients = anl.AddClients(cfg.ANLNodes, units.Gbps, ccfg)
		seeder = site.AddClients(1, 10*units.Gbps, core.DefaultClientConfig())[0]
	})
	perm, stagger := assignment(it.seed, cfg.ANLNodes, sim.Millisecond)
	it.wantRead = int64(cfg.SizePer) * int64(cfg.ANLNodes)

	return func(p *sim.Proc) error {
		var sm *core.Mount
		var err error
		it.span("setup.mount_s", func() { sm, err = seeder.MountLocal(p, site.FS) })
		if err != nil {
			return err
		}
		it.span("setup.seed_s", func() {
			for i := 0; i < cfg.ANLNodes && err == nil; i++ {
				err = seedFile(p, sm, fmt.Sprintf("/remote%02d.dat", i), cfg.SizePer, 8*units.MiB)
			}
		})
		if err != nil {
			return err
		}
		var mounts []*core.Mount
		it.span("setup.mount_s", func() { mounts, err = experiments.MountAll(p, clients, nil, device) })
		if err != nil {
			return err
		}
		s := p.Sim()
		if !it.startTimed(p) {
			return nil
		}
		defer it.endTimed(p)
		t0 := p.Now()
		wg := sim.NewWaitGroup(s)
		for i := range mounts {
			i := i
			m := mounts[perm[i]]
			wg.Add(1)
			s.Go("anl-read", func(rp *sim.Proc) {
				defer wg.Done()
				if stagger[i] > 0 {
					rp.Sleep(stagger[i])
				}
				c0 := rp.Now()
				f, err := m.Open(rp, fmt.Sprintf("/remote%02d.dat", i))
				if it.log.done(opOpen, rp, c0, err) != nil {
					return
				}
				for off := units.Bytes(0); off < f.Size(); off += units.MiB {
					if it.io(rp, f, false, off, units.MiB) != nil {
						return
					}
				}
			})
		}
		wg.Wait(p)
		it.window["read"] = p.Now() - t0
		return nil
	}
}

// seedFile writes a sized file through a mount, as the runners seed.
func seedFile(p *sim.Proc, m *core.Mount, name string, size, ioSize units.Bytes) error {
	f, err := m.Create(p, name, core.DefaultPerm)
	if err != nil {
		return err
	}
	for off := units.Bytes(0); off < size; off += ioSize {
		ln := ioSize
		if off+ln > size {
			ln = size - off
		}
		if err := f.WriteAt(p, off, ln); err != nil {
			return err
		}
	}
	return f.Close(p)
}

// buildMetastorm is the §6 small-file storm at 4 token shards, as
// RunMetastorm drives one arm: every client loops create, write 1 KiB,
// close, stat and remove in one shared directory.
func buildMetastorm(it *iteration) func(p *sim.Proc) error {
	cfg := stormConfig()
	var site *experiments.Site
	it.span("setup.cluster_s", func() { site = experiments.NewSite(it.s, it.nw, "storm") })
	it.sites = append(it.sites, site)
	var clients []*core.Client
	it.span("setup.fs_s", func() {
		site.BuildFS(experiments.FSOptions{
			Name: "gpfs-meta", BlockSize: cfg.BlockSize,
			Servers: cfg.Servers, ServerEth: units.Gbps,
			StoreRate: 400 * units.MBps, StoreCap: 100 * units.GB, StoreStreams: 8,
		})
		site.FS.SetTokenShards(cfg.Shards[0])
		clients = site.AddClients(cfg.Clients, units.Gbps, core.DefaultClientConfig())
	})
	perm, jitter := assignment(it.seed, cfg.Clients, 17*sim.Microsecond)
	it.wantWritten = int64(cfg.FileSize) * int64(cfg.Clients*cfg.Cycles)

	return func(p *sim.Proc) error {
		var mounts []*core.Mount
		var err error
		it.span("setup.mount_s", func() { mounts, err = experiments.MountAll(p, clients, site.FS, "") })
		if err != nil {
			return err
		}
		it.span("setup.seed_s", func() {
			if err = mounts[0].Mkdir(p, "/storm"); err == nil {
				err = mounts[0].Chmod(p, "/storm", core.DefaultPerm|core.WorldWrite)
			}
		})
		if err != nil {
			return err
		}
		s := p.Sim()
		if !it.startTimed(p) {
			return nil
		}
		t0 := p.Now()
		wg := sim.NewWaitGroup(s)
		for i := range mounts {
			i := i
			m := mounts[perm[i]]
			wg.Add(1)
			s.Go(fmt.Sprintf("storm-c%d", i), func(cp *sim.Proc) {
				defer wg.Done()
				cp.Sleep(sim.Time(i)*17*sim.Microsecond + jitter[i])
				for c := 0; c < cfg.Cycles; c++ {
					path := fmt.Sprintf("/storm/c%03d-f%04d", i, c)
					c0 := cp.Now()
					f, err := m.Create(cp, path, core.DefaultPerm)
					if it.log.done(opCreate, cp, c0, err) != nil {
						return
					}
					if it.io(cp, f, true, 0, cfg.FileSize) != nil {
						return
					}
					c0 = cp.Now()
					if it.log.done(opClose, cp, c0, f.Close(cp)) != nil {
						return
					}
					c0 = cp.Now()
					_, err = m.Stat(cp, path)
					if it.log.done(opStat, cp, c0, err) != nil {
						return
					}
					c0 = cp.Now()
					if it.log.done(opRemove, cp, c0, m.Remove(cp, path)) != nil {
						return
					}
				}
			})
		}
		wg.Wait(p)
		it.window["meta"] = p.Now() - t0
		it.window["write"] = p.Now() - t0
		it.endTimed(p)

		left, err := mounts[0].List(p, "/storm")
		if err != nil {
			return err
		}
		if len(left) != 0 {
			it.problem("metastorm left %d entries in /storm", len(left))
		}
		return nil
	}
}
