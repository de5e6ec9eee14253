package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/compute"
	"repro/internal/core"
	"repro/internal/et"
	"repro/internal/etgen"
	"repro/internal/experiments"
	"repro/internal/memory"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/timeline"
	"repro/internal/topology"
	"repro/internal/units"
)

// params are a workload's inputs. Only cluster_mix reads the seed; the
// other three are fixed inputs, so their digests hold for every seed.
type params struct {
	seed int64
	// tiny selects test-sized inputs (same code paths, seconds less work).
	tiny bool
	// workers bounds paper_reduced's sweep pool.
	workers int
}

// workload is one end-to-end run. run returns the simulated results the
// digest covers; it records spans, counters and set-up time on rec.
type workload struct {
	name   string
	why    string
	seeded bool
	run    func(p params, rec *recorder) (any, error)
}

// The workloads differ in which layers they load: the grid suite is the
// only one that exercises the sweep pool, the sweep cache and the
// cross-experiment memo; gpt3_conv4096 is rendezvous-heavy; pipeline_p2p
// is trace-ingestion-bound and nearly bypasses rendezvous and memo; and
// cluster_mix drives the largest shared timeline with flow arbitration.
var workloads = []workload{
	{
		name: "paper_reduced",
		why:  "every experiment of paper -exp all -reduced: the sweep pool, sweep cache and cross-experiment memo do real work",
		run:  runPaperReduced,
	},
	{
		name: "gpt3_conv4096",
		why:  "one 48-layer GPT-3 iteration on 4096 NPUs: every NPU issues every collective, so rendezvous dominates",
		run:  runGPT3Conv4096,
	},
	{
		name: "pipeline_p2p",
		why:  "1024-NPU pipeline with per-rank graphs and point-to-point traffic: trace ingestion dominates, rendezvous and memo nearly bypassed",
		run:  runPipelineP2P,
	},
	{
		name:   "cluster_mix",
		why:    "128 mixed jobs on one 2048-NPU shared timeline with flow and pool arbitration and seeded placement and faults",
		seeded: true,
		run:    runClusterMix,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// paperExperiment is one experiment of paper -exp all, in cmd/paper's
// order. The taxonomy table is left out: it only parses eight topology
// strings.
type paperExperiment struct {
	name string
	fast bool // cheap enough for the test-sized suite
	run  func(experiments.Options) (any, error)
}

var paperExperiments = []paperExperiment{
	{"fig4", true, func(o experiments.Options) (any, error) { return experiments.Fig4(o) }},
	{"speedup", false, func(o experiments.Options) (any, error) {
		res, err := experiments.Speedup(units.MB, o)
		if err != nil {
			return nil, err
		}
		// Host wall-clock fields differ on every run; the digest covers
		// only what was simulated.
		res.CycleWall, res.AnalyticalWall, res.AnalyticalWallLarge, res.SpeedupSmall = 0, 0, 0, 0
		return res, nil
	}},
	{"tableiv", true, func(o experiments.Options) (any, error) { return experiments.TableIV(o) }},
	{"fig9a", false, func(o experiments.Options) (any, error) { return experiments.Fig9a(o) }},
	{"fig9b", false, func(o experiments.Options) (any, error) { return experiments.Fig9b(o) }},
	{"fig11", false, func(o experiments.Options) (any, error) { return experiments.Fig11(o) }},
	{"ablation", true, func(o experiments.Options) (any, error) { return experiments.Ablation(o) }},
	{"pools", true, func(o experiments.Options) (any, error) { return experiments.PoolDesigns(o) }},
	{"fabrics", false, func(o experiments.Options) (any, error) { return experiments.Fabrics(o) }},
	{"search", false, func(o experiments.Options) (any, error) { return experiments.FabricSearch(o) }},
	{"interference", false, func(o experiments.Options) (any, error) { return experiments.Interference(o) }},
	{"resilience", false, func(o experiments.Options) (any, error) { return experiments.Resilience(o) }},
}

func runPaperReduced(p params, rec *recorder) (any, error) {
	workers := p.workers
	if workers <= 0 {
		workers = min(2, runtime.NumCPU())
	}
	cache := sweep.NewCache()
	o := experiments.Options{Reduced: true, Exec: sweep.Exec{Workers: workers, Cache: cache}}
	out := make(map[string]any)
	for _, e := range paperExperiments {
		if p.tiny && !e.fast {
			continue
		}
		var res any
		err := rec.span("experiments."+e.name, func() (err error) {
			res, err = e.run(o)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.name, err)
		}
		out[e.name] = res
		switch r := res.(type) {
		case *experiments.Fig4Result:
			rec.set("experiments.fig4_err_pct", r.MeanAbsErrorPct)
		case *experiments.FabricSearchResult:
			rec.set("search.simulations", float64(r.Halving.Simulations+r.Exhaustive.Simulations))
			rec.set("search.estimates", float64(r.Halving.Estimates+r.Exhaustive.Estimates))
		}
	}
	st := cache.Stats()
	rec.set("sweep.cache_hits", float64(st.Hits))
	rec.set("sweep.cache_misses", float64(st.Misses))
	return out, nil
}

// localHBM is the case studies' local memory: 1 us latency, 2039 GB/s.
func localHBM() memory.System {
	return memory.System{Local: memory.LocalModel{Latency: units.Microsecond, Bandwidth: units.GBps(2039)}}
}

func runGPT3Conv4096(p params, rec *recorder) (any, error) {
	name, layers := "Conv-4096", 48
	if p.tiny {
		name, layers = "Base-512", 2
	}
	sys, err := experiments.FindSystem(experiments.ScalingSystems(), name)
	if err != nil {
		return nil, err
	}
	cfg := etgen.GPT3()
	cfg.Layers = layers
	return runSingle(rec, sys.Top, core.Config{
		Topology: sys.Top,
		Compute:  compute.A100(),
		Memory:   localHBM(),
		Policy:   collective.Baseline,
		Chunks:   32,
	}, func() (*et.Trace, error) { return etgen.Transformer(sys.Top, cfg) })
}

func runPipelineP2P(p params, rec *recorder) (any, error) {
	spec, cfg := "FC(8)_SW(8)_R(16)", etgen.PipelineConfig{
		Name: "pipeline", Stages: 16, MicroBatches: 128, FlopsPerStage: 1e12,
		ActivationBytes: 16 * units.MiB, GradBytes: 256 * units.MiB,
	}
	if p.tiny {
		spec, cfg.Stages, cfg.MicroBatches = "FC(4)_SW(2)_R(4)", 4, 8
	}
	top, err := topology.ParseWithBandwidth(spec, []float64{250, 200, 50}, 500*units.Nanosecond)
	if err != nil {
		return nil, err
	}
	return runSingle(rec, top, core.Config{
		Topology:               top,
		Compute:                compute.A100(),
		Memory:                 localHBM(),
		Policy:                 collective.Baseline,
		ModelTransitCongestion: true,
	}, func() (*et.Trace, error) { return etgen.Pipeline(top, cfg) })
}

// runSingle drives one job through the simulator's public phases, timing
// each: trace generation and Start are set-up, the engine run is the
// simulation proper.
func runSingle(rec *recorder, top *topology.Topology, cfg core.Config, gen func() (*et.Trace, error)) (any, error) {
	var trace *et.Trace
	err := rec.setupSpan("etgen.build", func() (err error) {
		trace, err = gen()
		return err
	})
	if err != nil {
		return nil, err
	}
	rec.traces = append(rec.traces, trace)

	memo := collective.NewMemo()
	cfg.Memo = memo
	eng := timeline.New()
	sim, err := core.NewSimulatorOn(eng, cfg)
	if err != nil {
		return nil, err
	}
	if err := rec.setupSpan("core.start", func() error { return sim.Start(trace, 0) }); err != nil {
		return nil, err
	}
	if err := rec.span("timeline.run", func() error { _, err := eng.Run(); return err }); err != nil {
		return nil, err
	}
	var stats *core.RunStats
	if err := rec.span("core.finalize", func() (err error) { stats, err = sim.Finalize(); return err }); err != nil {
		return nil, err
	}
	rec.set("timeline.events", float64(stats.Events))
	hits, misses, _ := memo.Stats()
	rec.set("collective.memo_hits", float64(hits))
	rec.set("collective.memo_misses", float64(misses))
	return runDigest(stats), nil
}

// simResult is the simulated part of a core run: everything but host-side
// counters such as the number of events fired.
type simResult struct {
	Makespan      units.Time
	PerNPU        []core.Breakdown
	TrafficPerDim []units.ByteSize
	Collectives   []collective.Result
}

func runDigest(s *core.RunStats) simResult {
	return simResult{Makespan: s.Makespan, PerNPU: s.PerNPU, TrafficPerDim: s.TrafficPerDim, Collectives: s.Collectives}
}

// clusterJob is one job's simulated outcome in cluster_mix.
type clusterJob struct {
	Name            string
	Ranks           []int
	Arrival, Finish units.Time
	Result          simResult
}

// runClusterMix co-simulates GPT-3, GPT-3, DLRM and MoE-1T jobs (by job
// index mod 4) at full depth on one shared fabric and memory pool. The
// seed drives placement, arrivals, the spine degradation instant and the
// two straggling NPUs.
func runClusterMix(p params, rec *recorder) (any, error) {
	spec, jobs, gptLayers, moeLayers := "SW(8)_SW(256,4)", 128, 96, 24
	pool := memory.PoolConfig{
		Design: memory.Hierarchical, NumNodes: 256, GPUsPerNode: 8,
		NumOutSwitches: 64, NumRemoteGroups: 128,
		RemoteGroupBW: units.GBps(100), GPUSideOutFabricBW: units.GBps(100),
		InNodeFabricBW: units.GBps(256),
	}
	if p.tiny {
		spec, jobs, gptLayers, moeLayers = "SW(8)_SW(8,4)", 4, 2, 1
		pool.NumNodes, pool.NumOutSwitches, pool.NumRemoteGroups = 8, 2, 4
	}
	fabric, err := topology.ParseWithBandwidth(spec, []float64{250, 250}, 500*units.Nanosecond)
	if err != nil {
		return nil, err
	}
	gpt := etgen.GPT3()
	gpt.Layers = gptLayers
	moe := etgen.MoE1T(false)
	moe.Layers = moeLayers
	gens := []func(*topology.Topology) (*et.Trace, error){
		func(t *topology.Topology) (*et.Trace, error) { return etgen.Transformer(t, gpt) },
		func(t *topology.Topology) (*et.Trace, error) { return etgen.Transformer(t, gpt) },
		func(t *topology.Topology) (*et.Trace, error) { return etgen.DLRMTrace(t, etgen.DLRM()) },
		func(t *topology.Topology) (*et.Trace, error) { return etgen.MoETrace(t, moe) },
	}

	rng := rand.New(rand.NewSource(p.seed))
	mem := localHBM()
	mem.HasPool, mem.Pool = true, pool
	cfg := cluster.Config{
		Fabric:    fabric,
		Compute:   compute.A100(),
		Memory:    mem,
		Policy:    collective.Baseline,
		Chunks:    32,
		Placement: cluster.Random,
		Seed:      p.seed,
	}
	for j := 0; j < jobs; j++ {
		gen := gens[j%len(gens)]
		cfg.Jobs = append(cfg.Jobs, cluster.JobConfig{
			Name:    fmt.Sprintf("job%d", j),
			NPUs:    16,
			Arrival: units.Time(rng.Int63n(int64(20 * units.Millisecond))),
			Trace: func(t *topology.Topology) (*et.Trace, error) {
				var tr *et.Trace
				err := rec.setupSpan("etgen.build", func() (err error) {
					tr, err = gen(t)
					return err
				})
				if err != nil {
					return nil, err
				}
				rec.traces = append(rec.traces, tr)
				return tr, nil
			},
		})
	}
	// The full-depth mix runs for about 80 simulated seconds; the spine
	// degrades somewhere in its middle half.
	npus := fabric.NumNPUs()
	s1 := rng.Intn(npus)
	s2 := (s1 + 1 + rng.Intn(npus-1)) % npus
	cfg.Scenario = &scenario.Scenario{Name: "cluster_mix", Events: []scenario.Event{
		{Kind: scenario.DegradeLink, At: 20*units.Second + units.Time(rng.Int63n(int64(40*units.Second))), Dim: 1, Factor: 0.25},
		{Kind: scenario.StraggleNPU, NPU: s1, Factor: 1.3},
		{Kind: scenario.StraggleNPU, NPU: s2, Factor: 1.3},
	}}

	var res *cluster.Result
	if err := rec.span("cluster.run", func() (err error) { res, err = cluster.Run(cfg); return err }); err != nil {
		return nil, err
	}
	// cluster.Run generates each job's trace as it starts the job.
	rec.set("timeline.run_s", rec.get("cluster.run_s")-rec.get("etgen.build_s"))
	rec.set("timeline.events", float64(res.Events))
	rec.set("cluster.jobs", float64(len(res.Jobs)))
	out := make([]clusterJob, len(res.Jobs))
	for i, j := range res.Jobs {
		out[i] = clusterJob{Name: j.Name, Ranks: j.Ranks, Arrival: j.Arrival, Finish: j.Finish, Result: runDigest(j.Stats)}
	}
	return out, nil
}
