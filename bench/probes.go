package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"rumor/internal/api"
	"rumor/internal/cachestore"
	"rumor/internal/core"
	"rumor/internal/experiments"
	"rumor/internal/gossip"
	"rumor/internal/graph"
	"rumor/internal/obs"
	"rumor/internal/service"
	"rumor/internal/shard"
	"rumor/internal/stats"
	"rumor/internal/xrand"
)

// The layer probes: each times calls into one module's public
// functions, from outside, at sizes that keep the whole set to a few
// seconds. They do not depend on the workload being traced; every
// traced run repeats them, so each layer number comes with as many
// samples as there are traced runs.

// sink keeps results alive so the compiler cannot drop a probed call.
var sink uint64

// probes carries what the probes share.
type probes struct {
	e         *env
	out       map[string]float64
	attempted int
	failed    int
	small     *graph.Graph // random-regular, cache-resident
	large     *graph.Graph // the engine_large_n instance
}

func runProbes(e *env, out map[string]float64) (attempted, failed int, err error) {
	p := &probes{e: e, out: out}
	for _, step := range []struct {
		name string
		run  func() error
	}{
		{"xrand", p.xrand}, {"graph", p.graph}, {"core", p.core},
		{"engine", p.engine}, {"exec", p.exec}, {"cache", p.cache}, {"cachestore", p.cachestore},
		{"sched", p.sched}, {"http", p.http}, {"shard", p.shard},
		{"gossip", p.gossip}, {"experiments", p.experiments},
	} {
		start := time.Now()
		if err := step.run(); err != nil {
			return p.attempted, p.failed, fmt.Errorf("%s: %w", step.name, err)
		}
		e.notef("probe %-11s %.2f s", step.name, time.Since(start).Seconds())
		runtime.GC()
	}
	return p.attempted, p.failed, nil
}

// expect counts one checked operation.
func (p *probes) expect(ok bool, format string, args ...interface{}) {
	p.attempted++
	if !ok {
		p.failed++
		p.e.notef("probe check failed: "+format, args...)
	}
}

func (p *probes) xrand() error {
	n := p.e.sc.probeDraws
	rng := xrand.New(mix(p.e.seed, 10))
	p.out["xrand.uint64n_ns"] = timeOp(n, func(int) { sink += rng.Uint64n(1000003) })
	var f float64
	p.out["xrand.exp_ns"] = timeOp(n, func(int) { f += rng.Exp(1) })
	sink += uint64(f)
	buf := make([]uint64, 4096)
	p.out["xrand.fill_ns_per_word"] = timeOp(n/len(buf)+1, func(int) { rng.Fill(buf) }) / float64(len(buf))
	sink += buf[0]
	return nil
}

func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

func (p *probes) graph() error {
	syncCell, _ := largeCells(p.e.seed, p.e.sc.largeN)
	before := heapMB()
	start := time.Now()
	g, err := service.BuildGraph(syncCell)
	if err != nil {
		return err
	}
	took := time.Since(start).Seconds()
	p.large = g
	p.out["graph.build_large_s"] = took
	p.out["graph.build_large_edges_per_s"] = float64(g.NumEdges()) / took
	p.out["graph.heap_mb_large"] = heapMB() - before
	// CSR: one int32 per directed edge plus n+1 int32 offsets.
	p.out["graph.csr_bytes_large"] = float64(4 * (2*g.NumEdges() + g.NumNodes() + 1))

	// Every distinct graph instance of one quick-suite grid.
	cfg := experiments.Config{Quick: true, Seed: suiteSeed(p.e.seed, 0)}
	seen := map[string]bool{}
	var suite []service.CellSpec
	for _, ex := range experiments.All() {
		for _, c := range ex.Cells(cfg) {
			if c.Family != "" && !seen[c.GraphKey()] {
				seen[c.GraphKey()] = true
				suite = append(suite, c)
			}
		}
	}
	start = time.Now()
	for _, c := range suite {
		sg, err := service.BuildGraph(c)
		if err != nil {
			return err
		}
		sink += uint64(sg.NumEdges())
	}
	p.out["graph.build_suite_s"] = time.Since(start).Seconds()

	small, err := service.BuildGraph(shardPass(p.e.seed, 0, p.e.sc)[0])
	if err != nil {
		return err
	}
	p.small = small
	// The same call at a uniformly random node on a graph that fits
	// the cache and on one that does not: the difference is miss cost.
	rng := xrand.New(mix(p.e.seed, 11))
	neighbor := func(g *graph.Graph) float64 {
		n := uint64(g.NumNodes())
		return timeOp(p.e.sc.probeDraws, func(int) {
			sink += uint64(g.RandomNeighbor(graph.NodeID(rng.Uint64n(n)), rng))
		})
	}
	p.out["graph.neighbor_ns_small"] = neighbor(small)
	p.out["graph.neighbor_ns_large"] = neighbor(g)

	// One epoch of each dynamic provider at n=1024.
	base := service.CellSpec{Family: "gnp", N: 1024, GraphSeed: mix(p.e.seed, 12)}
	bg, err := service.BuildGraph(base)
	if err != nil {
		return err
	}
	re, err := graph.NewResample(bg, 1, func(epoch uint64) (*graph.Graph, error) {
		c := base
		c.GraphSeed = mix(base.GraphSeed, epoch)
		return service.BuildGraph(c)
	})
	if err != nil {
		return err
	}
	pe, err := graph.NewPerturb(bg, 1, 0.1, mix(p.e.seed, 13))
	if err != nil {
		return err
	}
	const epochs = 20
	epochMS := func(pr graph.Provider) (float64, error) {
		ns := timeOp(epochs, func(i int) {
			eg, _ := pr.At(float64(i + 1))
			sink += uint64(eg.NumEdges())
		})
		return ns / 1e6, pr.Err()
	}
	if p.out["graph.resample_epoch_ms"], err = epochMS(re); err != nil {
		return err
	}
	if p.out["graph.perturb_epoch_ms"], err = epochMS(pe); err != nil {
		return err
	}
	return nil
}

func (p *probes) core() error {
	root := xrand.New(mix(p.e.seed, 14))
	// rate runs trials until about 50 ms have passed and returns engine
	// updates per second and the first trial's counts.
	type counts struct{ updates, rounds int64 }
	rate := func(trials int, run func(rng *xrand.RNG) (counts, error)) (float64, counts, error) {
		var total int64
		var first counts
		start := time.Now()
		for t := 0; t < trials; t++ {
			c, err := run(root.Child(uint64(t)))
			if err != nil {
				return 0, first, err
			}
			if t == 0 {
				first = c
			}
			total += c.updates
		}
		return float64(total) / time.Since(start).Seconds(), first, nil
	}
	syncOn := func(g *graph.Graph) func(*xrand.RNG) (counts, error) {
		return func(rng *xrand.RNG) (counts, error) {
			r, err := core.RunSync(g, 0, core.SyncConfig{Protocol: core.PushPull}, rng)
			if err != nil {
				return counts{}, err
			}
			return counts{r.Updates, int64(r.Rounds)}, nil
		}
	}
	asyncOn := func(g *graph.Graph, cfg core.AsyncConfig) func(*xrand.RNG) (counts, error) {
		cfg.Protocol = core.PushPull
		return func(rng *xrand.RNG) (counts, error) {
			r, err := core.RunAsync(g, 0, cfg, rng)
			if err != nil {
				return counts{}, err
			}
			return counts{r.Steps, 0}, nil
		}
	}
	// A crash that never happens: the schedule alone routes the
	// per-node and per-edge views onto the eventq heap engines.
	never := []core.Crash{{Node: graph.NodeID(p.small.NumNodes() - 1), Time: 1e18}}
	trials := 40
	if p.e.sc.maxOps > 0 {
		trials = 2
	}
	var err error
	var c counts
	if p.out["core.sync_updates_per_s_small"], _, err = rate(trials, syncOn(p.small)); err != nil {
		return err
	}
	if p.out["core.async_updates_per_s_small"], _, err = rate(trials, asyncOn(p.small, core.AsyncConfig{})); err != nil {
		return err
	}
	if p.out["core.heap_updates_per_s_small"], _, err = rate(trials/2, asyncOn(p.small, core.AsyncConfig{View: core.PerNodeClocks, Crashes: never})); err != nil {
		return err
	}
	if p.out["core.edge_updates_per_s_small"], _, err = rate(trials/2, asyncOn(p.small, core.AsyncConfig{View: core.PerEdgeClocks, Crashes: never})); err != nil {
		return err
	}
	if p.out["core.sync_updates_per_s_large"], c, err = rate(1, syncOn(p.large)); err != nil {
		return err
	}
	p.out["core.sync_updates_large"], p.out["core.sync_rounds_large"] = float64(c.updates), float64(c.rounds)
	if p.out["core.async_updates_per_s_large"], c, err = rate(1, asyncOn(p.large, core.AsyncConfig{})); err != nil {
		return err
	}
	p.out["core.async_updates_large"] = float64(c.updates)
	// The cliff as one ratio; its base is core.sync_updates_per_s_small.
	p.out["core.slowdown_large_vs_small"] = p.out["core.sync_updates_per_s_small"] / p.out["core.sync_updates_per_s_large"]

	// Sync over a topology re-drawn every round.
	base := service.CellSpec{Family: "gnp", N: 1024, GraphSeed: mix(p.e.seed, 15)}
	bg, err := service.BuildGraph(base)
	if err != nil {
		return err
	}
	p.out["core.dynamic_updates_per_s"], _, err = rate(trials/8+1, func(rng *xrand.RNG) (counts, error) {
		topo, err := graph.NewResample(bg, 1, func(epoch uint64) (*graph.Graph, error) {
			c := base
			c.GraphSeed = mix(base.GraphSeed, epoch)
			return service.BuildGraph(c)
		})
		if err != nil {
			return counts{}, err
		}
		r, err := core.RunSyncTopo(topo, 0, core.SyncConfig{Protocol: core.PushPull}, rng)
		if err != nil {
			return counts{}, err
		}
		return counts{r.Updates, int64(r.Rounds)}, nil
	})
	if err != nil {
		return err
	}
	// Async with a tenth of the nodes leaving at t=1 and back at t=3.
	var churn []core.ChurnEvent
	for v := 1; v < p.small.NumNodes(); v += 10 {
		churn = append(churn,
			core.ChurnEvent{Node: graph.NodeID(v), Time: 1, Op: core.ChurnLeave},
			core.ChurnEvent{Node: graph.NodeID(v), Time: 3, Op: core.ChurnJoin})
	}
	p.out["core.churn_updates_per_s"], _, err = rate(trials/2, func(rng *xrand.RNG) (counts, error) {
		r, err := core.RunAsyncTopo(graph.NewStatic(p.small), 0, core.AsyncConfig{Protocol: core.PushPull, Churn: churn}, rng)
		if err != nil {
			return counts{}, err
		}
		return counts{r.Steps, 0}, nil
	})
	if err != nil {
		return err
	}
	st, err := core.NewSyncStepper(p.small, 0, core.SyncConfig{Protocol: core.PushPull}, root)
	if err != nil {
		return err
	}
	p.out["core.stepper_reset_ns"] = timeOp(p.e.sc.probeDraws/100+1, func(int) { st.Reset(root) })
	return nil
}

// engine times the engine_large_n pair as the workload runs it:
// Executor.Run of the sync cell on an empty graph cache, then of the
// async cell on the graph that run left there.
func (p *probes) engine() error {
	syncCell, asyncCell := largeCells(p.e.seed, p.e.sc.largeN)
	ex := &service.Executor{Graphs: service.NewGraphCache(rumordGraphCache)}
	for _, c := range []struct {
		name string
		cell service.CellSpec
	}{{mSyncCell, syncCell}, {mAsyncCell, asyncCell}} {
		start := time.Now()
		if _, _, err := ex.Run(context.Background(), 0, c.cell); err != nil {
			return err
		}
		p.out[c.name] = time.Since(start).Seconds()
	}
	return nil
}

// execCell is the service workloads' cell shape.
func (p *probes) execCell(i int) service.CellSpec {
	c := smallJob(p.e.seed, 1<<28, p.e.sc.jobCells)[0]
	c.TrialSeed = mix(p.e.seed, 16, uint64(i))
	return c
}

func (p *probes) exec() error {
	ctx := context.Background()
	n := p.e.sc.probeDraws/1000 + 1
	cell := p.execCell(0)
	g, err := service.BuildGraph(cell)
	if err != nil {
		return err
	}
	kind, err := service.KindByName(service.KindTime)
	if err != nil {
		return err
	}
	p.out["exec.validate_us"] = timeOp(n, func(int) {
		if cell.Validate() != nil {
			sink++
		}
	}) / 1e3
	p.out["exec.key_us"] = timeOp(n, func(int) { sink += uint64(len(cell.Key())) }) / 1e3
	var kr *service.KindResult
	p.out["exec.kind_run_us"] = timeOp(n, func(i int) {
		if kr, err = kind.Run(ctx, p.execCell(i), g, 1); err != nil {
			sink++
		}
	}) / 1e3
	if err != nil {
		return err
	}
	p.out["exec.summarize_us"] = timeOp(n, func(int) { sink += uint64(stats.Summarize(kr.Times).N) }) / 1e3
	long := make([]float64, 1000)
	rng := xrand.New(mix(p.e.seed, 17))
	for i := range long {
		long[i] = rng.Exp(1)
	}
	p.out["stats.summarize_ns_per_trial"] = timeOp(n/10+1, func(int) { sink += uint64(stats.Summarize(long).N) }) / float64(len(long))

	ex := &service.Executor{Results: service.NewResultCache(rumordResultCache), Graphs: service.NewGraphCache(rumordGraphCache)}
	if _, _, err := ex.Run(ctx, 0, cell); err != nil {
		return err
	}
	p.out["exec.run_us"] = timeOp(n, func(i int) { // graph hit, result miss
		if _, _, err = ex.Run(ctx, i, p.execCell(i+1)); err != nil {
			sink++
		}
	}) / 1e3
	if err != nil {
		return err
	}
	hits := 0
	p.out["exec.hit_us"] = timeOp(n, func(i int) {
		if _, cached, _ := ex.Run(ctx, i, cell); cached {
			hits++
		}
	}) / 1e3
	p.expect(hits == n, "exec.hit_us: %d of %d runs were result hits", hits, n)
	return nil
}

// someResults computes n distinct small cells on a plain executor.
func (p *probes) someResults(n int, salt uint64) ([]*service.CellResult, error) {
	cells := make([]service.CellSpec, n)
	for i := range cells {
		cells[i] = smallJob(p.e.seed, 1<<27+i/p.e.sc.jobCells, p.e.sc.jobCells)[i%p.e.sc.jobCells]
		cells[i].TrialSeed = mix(cells[i].TrialSeed, salt)
	}
	ex := &service.Executor{Graphs: service.NewGraphCache(rumordGraphCache)}
	return ex.RunCells(context.Background(), cells)
}

func (p *probes) cache() error {
	res, err := p.someResults(p.e.sc.probeRecords, 1)
	if err != nil {
		return err
	}
	n := len(res)
	lru := service.NewResultCache(rumordResultCache)
	p.out["cache.lru_put_ns"] = timeOp(n, func(i int) { lru.Put(res[i].Key, res[i]) })
	// The most recent entries are the ones still resident.
	resident := min(n, rumordResultCache)
	hits := 0
	p.out["cache.lru_get_ns"] = timeOp(resident, func(i int) {
		if _, ok := lru.Get(res[n-1-i].Key); ok {
			hits++
		}
	})
	p.expect(hits == resident, "cache.lru_get_ns: %d of %d gets hit", hits, resident)

	gc := service.NewGraphCache(rumordGraphCache)
	cell := p.execCell(0)
	if _, err := gc.Get(cell); err != nil {
		return err
	}
	p.out["cache.graph_hit_ns"] = timeOp(p.e.sc.probeDraws/100+1, func(int) {
		g, _ := gc.Get(cell)
		sink += uint64(g.NumNodes())
	})

	// Tiered: Puts land in the LRU and queue for the disk; after a
	// reopen with a cold LRU every Get is a disk read, decode, promote.
	dir, err := p.e.tempDir("probe-tiered")
	if err != nil {
		return err
	}
	store, err := openStore(dir)
	if err != nil {
		return err
	}
	tiers := service.NewTieredResultCache(service.NewResultCache(rumordResultCache), store)
	puts := min(n, cachestore.DefaultQueueLimit/2) // stay inside the write-behind bound
	p.out["cache.tiered_put_us"] = timeOp(puts, func(i int) { tiers.Put(res[i].Key, res[i]) }) / 1e3
	if err := tiers.Close(); err != nil {
		return err
	}
	store, err = openStore(dir)
	if err != nil {
		return err
	}
	tiers = service.NewTieredResultCache(service.NewResultCache(rumordResultCache), store)
	defer tiers.Close()
	p.out["cache.tiered_disk_hit_us"] = timeOp(puts, func(i int) {
		if r, ok := tiers.Get(res[i].Key); ok {
			sink += uint64(r.N)
		}
	}) / 1e3
	st := tiers.Stats()
	p.expect(int(st.DiskHits) == puts && st.Disk.Dropped == 0,
		"cache.tiered_disk_hit_us: %d disk hits of %d, %d dropped", st.DiskHits, puts, st.Disk.Dropped)
	return nil
}

func (p *probes) cachestore() error {
	res, err := p.someResults(p.e.sc.probeRecords, 2)
	if err != nil {
		return err
	}
	vals := make([][]byte, len(res))
	for i, r := range res {
		if vals[i], err = json.Marshal(r); err != nil {
			return err
		}
	}
	dir, err := p.e.tempDir("probe-store")
	if err != nil {
		return err
	}
	store, err := openStore(dir)
	if err != nil {
		return err
	}
	defer func() { store.Close() }()
	// Puts are queued; Flush is the fsync they wait for.
	burst := min(len(res), 1000)
	p.out["cachestore.put_us"] = timeOp(burst, func(i int) { store.Put(res[i].Key, vals[i]) }) / 1e3
	start := time.Now()
	if err := store.Flush(); err != nil {
		return err
	}
	p.out["cachestore.flush_ms"] = time.Since(start).Seconds() * 1e3
	hits := 0
	p.out["cachestore.get_us"] = timeOp(burst, func(i int) {
		if v, ok := store.Get(res[i].Key); ok {
			hits++
			sink += uint64(len(v))
		}
	}) / 1e3
	p.expect(hits == burst, "cachestore.get_us: %d of %d gets hit", hits, burst)
	for i := burst; i < len(res); i++ {
		store.Put(res[i].Key, vals[i])
		if i%1000 == 0 {
			if err := store.Flush(); err != nil {
				return err
			}
		}
	}
	if err := store.Flush(); err != nil {
		return err
	}
	st := store.Stats()
	p.out["cachestore.bytes_per_record"] = float64(st.Bytes) / float64(st.Records)
	dropped := st.Dropped
	if err := store.Close(); err != nil {
		return err
	}
	start = time.Now()
	if store, err = openStore(dir); err != nil {
		return err
	}
	took := time.Since(start).Seconds()
	p.out["cachestore.open_replay_s"] = took
	p.out["cachestore.open_records_per_s"] = float64(store.Stats().Records) / took
	p.expect(store.Stats().Records == len(res), "cachestore replay found %d of %d records", store.Stats().Records, len(res))
	// Supersede half, then compact the dead half away.
	for i := 0; i < len(res)/2; i++ {
		store.Put(res[i].Key, vals[i])
		if i%1000 == 999 {
			if err := store.Flush(); err != nil {
				return err
			}
		}
	}
	if err := store.Flush(); err != nil {
		return err
	}
	start = time.Now()
	if err := store.Compact(); err != nil {
		return err
	}
	p.out["cachestore.compact_s"] = time.Since(start).Seconds()
	dropped += store.Stats().Dropped
	p.out["cachestore.dropped"] = float64(dropped)
	p.expect(dropped == 0, "cachestore dropped %d writes", dropped)
	return nil
}

// noopKind is a graphless cell kind that does nothing, registered
// through the public registry: a scheduler run over it costs queue,
// completion and notify only.
const noopKind = "bench-noop"

var registerNoop sync.Once

func noopCells(n int, salt uint64) []service.CellSpec {
	registerNoop.Do(func() {
		service.MustRegisterKind(service.CellKind{
			Name: noopKind,
			Run: func(context.Context, service.CellSpec, *graph.Graph, int) (*service.KindResult, error) {
				return &service.KindResult{Times: []float64{0}}, nil
			},
		})
	})
	cells := make([]service.CellSpec, n)
	for i := range cells {
		cells[i] = service.CellSpec{Kind: noopKind, Trials: 1, TrialSeed: mix(salt, uint64(i))}
	}
	return cells
}

// histMean reads a histogram's mean (seconds) off a scrape.
func histMean(sc obs.Scrape, name string) float64 {
	sum, _ := sc.Sum(name + "_sum")
	count, _ := sc.Sum(name + "_count")
	if count == 0 {
		return 0
	}
	return sum / count
}

// miniService is service_small_cells for probeJobs jobs on a fresh
// daemon; it returns the timed section and the daemon's final scrape.
func (p *probes) miniService(noObs bool, salt int) (*sample, obs.Scrape, error) {
	dir, err := p.e.tempDir("probe-svc")
	if err != nil {
		return nil, nil, err
	}
	w := &serviceLoad{e: p.e, name: "probe", dir: dir}
	w.jobOf = func(i int) int { return 1<<26 + salt<<16 + i }
	d, err := startDaemon(daemonConfig{cacheDir: dir, noObs: noObs})
	if err != nil {
		return nil, nil, err
	}
	w.d = d
	defer w.stop()
	if w.clients, w.lb, err = newClients(d, p.e.nproc); err != nil {
		return nil, nil, err
	}
	w.kept = map[int][]*service.CellResult{}
	s, err := w.runJobs(time.Duration(p.e.seconds*float64(time.Second)), p.e.sc.probeJobs, plainJob)
	if err != nil {
		return nil, nil, err
	}
	var scrape obs.Scrape
	if d.reg != nil {
		var buf bytes.Buffer
		start := time.Now()
		if err := d.reg.WriteText(&buf); err != nil {
			return nil, nil, err
		}
		p.out["obs.scrape_ms"] = time.Since(start).Seconds() * 1e3
		if scrape, err = obs.ParseText(&buf); err != nil {
			return nil, nil, err
		}
	}
	p.expect(w.jobsBad == 0, "probe service pass: %d of %d jobs failed", w.jobsBad, w.jobsRun)
	return s, scrape, nil
}

func (p *probes) sched() error {
	ctx := context.Background()
	s := service.NewScheduler(service.SchedulerConfig{QueueLimit: rumordQueue, JobRetention: rumordJobRetention})
	defer s.Shutdown(ctx)
	cells := noopCells(p.e.sc.probeCells, 1)
	start := time.Now()
	res, err := s.RunCells(ctx, cells)
	if err != nil {
		return err
	}
	p.out["sched.noop_cells_per_s"] = float64(len(res)) / time.Since(start).Seconds()
	var submit []float64
	for i := 0; i < 50; i++ {
		batch := noopCells(p.e.sc.jobCells, uint64(2+i))
		t0 := time.Now()
		job, err := s.SubmitCells(batch, 0)
		submit = append(submit, time.Since(t0).Seconds())
		if err != nil {
			return err
		}
		if err := job.Wait(); err != nil {
			return err
		}
	}
	p.out["sched.submit_us"] = median(submit) * 1e6

	// The program's own registry after a small service pass. Its
	// histograms start at 5 ms, far above these waits, so the mean
	// (sum/count) is what they can give, not a median.
	withObs, scrape, err := p.miniService(false, 1)
	if err != nil {
		return err
	}
	withoutObs, _, err := p.miniService(true, 2)
	if err != nil {
		return err
	}
	p.out["obs.overhead_ratio"] = withObs.perUnit() / withoutObs.perUnit()
	p.out["sched.queue_wait_mean_ms"] = histMean(scrape, "rumor_scheduler_queue_wait_seconds") * 1e3
	p.out["sched.cell_duration_mean_ms"] = histMean(scrape, "rumor_scheduler_cell_duration_seconds") * 1e3
	busy, _ := scrape.Sum("rumor_scheduler_cell_duration_seconds_sum")
	p.out["sched.busy_share"] = busy / (float64(p.e.nproc) * withObs.wall)
	return nil
}

func (p *probes) http() error {
	ctx := context.Background()
	d, err := startDaemon(daemonConfig{})
	if err != nil {
		return err
	}
	defer d.stop()
	cls, lb, err := newClients(d, 1)
	if err != nil {
		return err
	}
	defer lb.close()
	c := cls[0]

	var submit, fixed []float64
	for i := 0; i < p.e.sc.probeJobs; i++ {
		cells := smallJob(p.e.seed, 1<<25+i, p.e.sc.jobCells)
		t0 := time.Now()
		st, err := c.SubmitJob(ctx, service.JobSpec{CellList: cells})
		submit = append(submit, time.Since(t0).Seconds())
		if err != nil {
			return err
		}
		if err := c.StreamResults(ctx, st.ID, -1, func(*service.CellResult) error { return nil }); err != nil {
			return err
		}
		t0 = time.Now()
		if _, err := c.RunCells(ctx, noopCells(1, uint64(100+i))); err != nil {
			return err
		}
		fixed = append(fixed, time.Since(t0).Seconds())
	}
	p.out["http.submit_p50_ms"] = median(submit) * 1e3
	p.out["http.job_fixed_ms"] = median(fixed) * 1e3

	// One big finished job, streamed again: encode, wire, decode only.
	var big []service.CellSpec
	for j := 0; len(big) < p.e.sc.probeCells; j++ {
		big = append(big, smallJob(p.e.seed, 1<<24+j, p.e.sc.jobCells)...)
	}
	st, err := c.SubmitJob(ctx, service.JobSpec{CellList: big})
	if err != nil {
		return err
	}
	results := make([]*service.CellResult, 0, len(big))
	if err := c.StreamResults(ctx, st.ID, -1, func(r *service.CellResult) error {
		results = append(results, r)
		return nil
	}); err != nil {
		return err
	}
	start := time.Now()
	rows := 0
	if err := c.StreamResults(ctx, st.ID, -1, func(*service.CellResult) error { rows++; return nil }); err != nil {
		return err
	}
	p.out["http.stream_cells_per_s"] = float64(rows) / time.Since(start).Seconds()
	p.expect(rows == len(big), "http stream returned %d of %d rows", rows, len(big))

	stream, err := c.Results(ctx, st.ID, -1)
	if err != nil {
		return err
	}
	var wire [][]byte
	total := 0
	for {
		if _, err := stream.Next(); err != nil {
			if err != io.EOF {
				stream.Close()
				return err
			}
			break
		}
		wire = append(wire, append([]byte(nil), stream.Raw()...))
		total += len(stream.Raw()) + 1
	}
	stream.Close()
	p.out["http.bytes_per_cell"] = float64(total) / float64(len(wire))
	p.out["api.encode_us_per_cell"] = timeOp(len(results), func(i int) {
		if api.EncodeRow(io.Discard, results[i]) != nil {
			sink++
		}
	}) / 1e3
	// The SDK's row decode: one Unmarshal that also looks for an error.
	p.out["client.decode_us_per_cell"] = timeOp(len(wire), func(i int) {
		var row struct {
			Error *api.Error `json:"error"`
			service.CellResult
		}
		if json.Unmarshal(wire[i], &row) != nil {
			sink++
		}
	}) / 1e3
	return nil
}

func (p *probes) shard() error {
	ctx := context.Background()
	cells := shardPass(p.e.seed, 1<<21, p.e.sc)
	ring := shard.NewRing(0)
	for _, name := range shardPeerNames {
		ring.Add(name)
	}
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = c.Key()
	}
	per := map[string]int{}
	p.out["shard.ring_owner_ns"] = timeOp(len(keys)*20, func(i int) {
		owner, _ := ring.Owner(keys[i%len(keys)])
		if i < len(keys) {
			per[owner]++
		}
	})
	largest := 0
	for _, n := range per {
		largest = max(largest, n)
	}
	p.out["shard.imbalance"] = float64(largest) / (float64(len(keys)) / float64(len(shardPeerNames)))

	// The same cells through one 2-worker daemon and through the
	// coordinator over two 1-worker peers, each side on fresh daemons.
	single, err := startDaemon(daemonConfig{workers: len(shardPeerNames)})
	if err != nil {
		return err
	}
	cls, lb, err := newClients(single, 1)
	if err == nil {
		start := time.Now()
		_, err = cls[0].RunCells(ctx, cells)
		p.out["shard.single_daemon_s"] = time.Since(start).Seconds()
		lb.close()
	}
	single.stop()
	if err != nil {
		return err
	}
	w := &shardFanout{e: p.e, cold: true}
	defer w.tearDown()
	if err := w.setUp(); err != nil {
		return err
	}
	start := time.Now()
	res, err := w.co.RunCells(ctx, cells)
	if err != nil {
		return err
	}
	p.out["shard.overhead_ratio"] = time.Since(start).Seconds() / p.out["shard.single_daemon_s"]
	p.expect(len(res) == len(cells), "shard probe returned %d of %d cells", len(res), len(cells))
	return nil
}

func (p *probes) gossip() error {
	reg := obs.NewRegistry()
	start := time.Now()
	cl, err := gossip.NewSelfHost(p.e.sc.gossipN, gossip.NewMetrics(reg))
	if err != nil {
		return err
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		return err
	}
	p.out["gossip.selfhost_setup_ms"] = time.Since(start).Seconds() * 1e3

	addr := cl.Addrs()[0]
	n := p.e.sc.probeDraws/1000 + 1
	ping, err := gossip.NewEnvelope(gossip.MethodPing, gossip.CoordinatorFrom, nil)
	if err != nil {
		return err
	}
	var calls, dials []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := gossip.Call(addr, ping, 2*time.Second, nil); err != nil {
			return err
		}
		calls = append(calls, time.Since(t0).Seconds())
		t0 = time.Now()
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			return err
		}
		conn.Close()
		dials = append(dials, time.Since(t0).Seconds())
	}
	p.out["gossip.call_p50_us"] = median(calls) * 1e6
	p.out["gossip.dial_p50_us"] = median(dials) * 1e6
	// rpc.go dials per message on the assumption that reuse buys
	// nothing; this is the share of a call that the dial is.
	p.out["gossip.dial_share"] = median(dials) / median(calls)

	push, err := gossip.NewEnvelope(gossip.MethodPush, 3, gossip.Rumor{Round: 5})
	if err != nil {
		return err
	}
	var frame bytes.Buffer
	if err := gossip.WriteFrame(&frame, push); err != nil {
		return err
	}
	raw := frame.Bytes()
	p.out["gossip.frame_encode_ns"] = timeOp(n*10, func(int) {
		if gossip.WriteFrame(io.Discard, push) != nil {
			sink++
		}
	})
	p.out["gossip.frame_decode_ns"] = timeOp(n*10, func(int) {
		if _, err := gossip.ReadFrame(bytes.NewReader(raw)); err != nil {
			sink++
		}
	})

	// Wire bytes and messages by the program's own counters, around a
	// few trials; RunTrial's elapsed time minus the Wall it reports is
	// the STARTUP and SHUTDOWN sweeps (and the graph build).
	counters := func() (bytesSent, msgs float64, err error) {
		var buf bytes.Buffer
		if err := reg.WriteText(&buf); err != nil {
			return 0, 0, err
		}
		sc, err := obs.ParseText(&buf)
		if err != nil {
			return 0, 0, err
		}
		bytesSent, _ = sc.Value("rumor_gossip_frame_bytes_total", map[string]string{"direction": "sent"})
		msgs, _ = sc.Sum("rumor_gossip_messages_sent_total")
		return bytesSent, msgs, nil
	}
	b0, m0, err := counters()
	if err != nil {
		return err
	}
	var overhead []float64
	var msgs, rounds float64
	for t := 0; t < p.e.sc.probeTrials; t++ {
		t0 := time.Now()
		res, err := cl.RunTrial(gossip.TrialSpec{Cell: gossipTrial(p.e.seed, 1<<20+t, p.e.sc.gossipN)})
		if err != nil {
			return err
		}
		overhead = append(overhead, (time.Since(t0) - res.Wall).Seconds())
		msgs += float64(res.Sent)
		rounds += float64(res.Rounds)
		p.expect(res.Informed == res.N && res.Sent == res.Received, "gossip probe trial: informed %d/%d, sent %d, received %d",
			res.Informed, res.N, res.Sent, res.Received)
	}
	b1, m1, err := counters()
	if err != nil {
		return err
	}
	p.out["gossip.bytes_per_msg"] = (b1 - b0) / (m1 - m0)
	p.out["gossip.trial_overhead_ms"] = median(overhead) * 1e3
	p.out["gossip.msgs_total"] = msgs
	p.out["gossip.rounds_total"] = rounds
	return nil
}

func (p *probes) experiments() error {
	seed := suiteSeed(p.e.seed, 0)
	runner := experiments.NewLocalRunner(p.e.nproc, true)
	cfg := experiments.Config{Quick: true, Seed: seed, Workers: p.e.nproc, Runner: runner}
	cold, err := experiments.RunAll(cfg)
	if err != nil {
		return err
	}
	rs, gs := runner.Results.Stats(), runner.Graphs.Stats()
	start := time.Now()
	warm, err := experiments.RunAll(cfg) // every cell cached: reducers + hits
	if err != nil {
		return err
	}
	p.out["experiments.warm_suite_s"] = time.Since(start).Seconds()
	cells := 0
	for _, ex := range experiments.All() {
		cells += len(ex.Cells(cfg))
	}
	p.out["experiments.cells"] = float64(cells)
	p.out["experiments.result_hit_rate"] = rs.Rate
	p.out["experiments.graph_hit_rate"] = gs.Rate
	same := len(cold) == len(warm)
	for i := 0; same && i < len(cold); i++ {
		same = cold[i].Verdict == warm[i].Verdict && cold[i].Details == warm[i].Details
	}
	p.expect(same, "warm suite differs from cold at seed %d", seed)
	return nil
}
