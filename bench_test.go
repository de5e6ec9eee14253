package astrasim

// One benchmark per reproduced table/figure of the paper (README
// "Reproducing the paper" lists each artifact), plus ablation benches for
// the design choices the implementation makes. Each benchmark runs the
// same driver that regenerates the artifact via cmd/paper, so
// `go test -bench` doubles as a performance regression harness for the
// simulator itself.

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/et"
	"repro/internal/etgen"
	"repro/internal/experiments"
	"repro/internal/garnet"
	"repro/internal/network"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/timeline"
	"repro/internal/topology"
	"repro/internal/units"
)

// BenchmarkFig4Validation regenerates the analytical-backend validation
// sweep (E1): 12 All-Reduce configurations against the reference system.
func BenchmarkFig4Validation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.MeanAbsErrorPct > 8 {
			b.Fatalf("mean error drifted to %.2f%%", res.MeanAbsErrorPct)
		}
	}
}

// speedupTorus is the speedup study's small torus (E2) as the analytical
// backend sees it: three rings of 4, each with twice garnet's 16 GB/s
// per-direction link rate and a 1 ns hop.
func speedupTorus() *topology.Topology {
	ring := topology.Dim{Kind: topology.Ring, Size: 4, Bandwidth: units.GBps(32), Latency: units.Nanosecond}
	return topology.MustNew(ring, ring, ring)
}

// BenchmarkSpeedupAnalytical measures the analytical backend on the
// speedup study's small torus (E2) — the "fast" side of the comparison.
func BenchmarkSpeedupAnalytical(b *testing.B) {
	top := speedupTorus()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := timeline.New()
		net := network.NewBackend(eng, top)
		ce := collective.NewEngine(net, collective.Baseline, 1)
		if err := ce.Start(collective.AllReduce, units.MB, collective.FullMachine(top), net.Machine(), nil); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpeedupGarnet measures the cycle-level backend on the same
// configuration (E2) — the "slow" side — playing the torus's All-Reduce
// schedule. The ratio of these two benchmarks is the reproduced headline
// of Section IV-C.
func BenchmarkSpeedupGarnet(b *testing.B) {
	top := speedupTorus()
	steps, err := collective.MessageSchedule(top, collective.AllReduce, units.MB, collective.FullMachine(top))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := garnet.New(garnet.Config{Shape: []int{4, 4, 4}, FlitBytes: 16, LinkLatency: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := g.Play(steps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIV regenerates the seven-row wafer-scaling table (E3).
func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableIV(experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 7 {
			b.Fatal("row count drifted")
		}
	}
}

// BenchmarkFig9a regenerates the 512-NPU case-study grid (E4) with
// reduced layer counts.
func BenchmarkFig9a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9a(experiments.Options{Reduced: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9b regenerates the scaling grid (E5) with reduced layers.
func BenchmarkFig9b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9b(experiments.Options{Reduced: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11 regenerates the disaggregated-memory comparison (E6)
// with the sweep's corner points.
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11(experiments.Options{Reduced: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHierMemSweep regenerates the full 8x5 design-space sweep (E7).
func BenchmarkHierMemSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11(experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Sweep) != 40 {
			b.Fatalf("sweep has %d points, want 40", len(res.Sweep))
		}
	}
}

// --- Sweep engine: serial vs parallel execution ---

// benchSweepWorkers regenerates a bundle of experiment grids (Fig. 4,
// Table IV, the ablation) through the sweep engine at a fixed worker
// count. The Serial/Parallel pair tracks the engine's wall-clock speedup
// in the perf trajectory; on an N-core host the parallel variant should
// approach Nx (>2x on 4 cores) with byte-identical results.
func benchSweepWorkers(b *testing.B, workers int) {
	o := experiments.Options{Exec: sweep.Exec{Workers: workers}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(o); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.TableIV(o); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Ablation(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepSerial(b *testing.B) { benchSweepWorkers(b, 1) }

func BenchmarkSweepParallel(b *testing.B) { benchSweepWorkers(b, 0) } // all cores

// --- Search engine: fidelity-gated search vs exhaustive sweep ---

// BenchmarkSearchVsSweep measures the multi-fidelity payoff on a 24-point
// machine space (6 fabric shapes x 4 bandwidth provisions, one 256 MB
// All-Reduce): the exhaustive strategy event-simulates every candidate,
// the halving strategy estimate-screens the space and simulates the top
// quartile. After both sub-benchmarks run it writes BENCH_search.json
// with wall time, evaluation counts and the fidelity-gated speedup, and
// fails if the budgeted search misses the exhaustive optimum.
func BenchmarkSearchVsSweep(b *testing.B) {
	spec := func(strategy string) SearchSpec {
		return SearchSpec{
			Name:       "bench-search",
			Strategy:   strategy,
			Seed:       1,
			Topologies: []string{"R(64)", "SW(64)", "M(64)", "FC(64)", "T2D(8,8)", "SW(64,4)"},
			Bandwidths: [][]float64{{50}, {100}, {200}, {400}},
			Workloads:  []WorkloadSpec{{Kind: "all_reduce", SizeBytes: 256 << 20}},
		}
	}
	type record struct {
		Strategy    string  `json:"strategy"`
		Space       int     `json:"space"`
		Estimates   int     `json:"estimates"`
		Simulations int     `json:"simulations"`
		NsPerOp     float64 `json:"ns_per_op"`
		Best        string  `json:"best"`
	}
	records := make([]record, 2)
	for si, strategy := range []string{"exhaustive", "halving"} {
		b.Run(strategy, func(b *testing.B) {
			var res *SearchResult
			start := time.Now()
			for i := 0; i < b.N; i++ {
				var err error
				res, err = Optimize(spec(strategy), SearchOptions{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Simulations), "sims")
			records[si] = record{
				Strategy:    strategy,
				Space:       res.Feasible,
				Estimates:   res.Estimates,
				Simulations: res.Simulations,
				NsPerOp:     float64(time.Since(start).Nanoseconds()) / float64(b.N),
				Best:        res.Best.Machine,
			}
		})
	}
	// Sub-benchmarks can be filtered away; only write the artifact (and
	// judge recovery) when both strategies actually ran.
	for _, r := range records {
		if r.Strategy == "" {
			return
		}
	}
	if records[0].Best != records[1].Best {
		b.Fatalf("halving best %q != exhaustive best %q", records[1].Best, records[0].Best)
	}
	doc, err := json.MarshalIndent(struct {
		Workload  string   `json:"workload"`
		Records   []record `json:"records"`
		Speedup   float64  `json:"speedup"`
		Recovered bool     `json:"recovered"`
	}{
		Workload:  "all_reduce(256MB)",
		Records:   records,
		Speedup:   records[0].NsPerOp / records[1].NsPerOp,
		Recovered: true,
	}, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_search.json", append(doc, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// --- Ablations for the modeling choices (internal/experiments/ablation.go) ---

// BenchmarkAblationChunks quantifies chunk-pipelining depth: collective
// runtime and simulation cost as the chunk count grows (1 disables
// pipelining; the paper's bottleneck behaviour emerges from ~16 on).
func BenchmarkAblationChunks(b *testing.B) {
	top := topology.MustNew(
		topology.Dim{Kind: topology.Ring, Size: 2, Bandwidth: units.GBps(1000)},
		topology.Dim{Kind: topology.FullyConnected, Size: 8, Bandwidth: units.GBps(200)},
		topology.Dim{Kind: topology.Ring, Size: 8, Bandwidth: units.GBps(100)},
		topology.Dim{Kind: topology.Switch, Size: 4, Bandwidth: units.GBps(50)},
	)
	for _, chunks := range []int{1, 16, 64, 256} {
		b.Run(benchName("chunks", chunks), func(b *testing.B) {
			var last units.Time
			for i := 0; i < b.N; i++ {
				eng := timeline.New()
				net := network.NewBackend(eng, top)
				ce := collective.NewEngine(net, collective.Baseline, chunks)
				var res collective.Result
				if err := ce.Start(collective.AllGather, 1024*units.MB, collective.FullMachine(top), net.Machine(), func(r collective.Result) { res = r }); err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Run(); err != nil {
					b.Fatal(err)
				}
				last = res.Duration()
			}
			b.ReportMetric(last.Micros(), "sim_us")
		})
	}
}

// BenchmarkAblationScheduler compares the two chunk schedulers on the
// paper's Conv-3D system, reporting the simulated collective time so the
// Themis gain is visible next to the scheduling overhead.
func BenchmarkAblationScheduler(b *testing.B) {
	top := topology.MustNew(
		topology.Dim{Kind: topology.Ring, Size: 16, Bandwidth: units.GBps(200)},
		topology.Dim{Kind: topology.FullyConnected, Size: 8, Bandwidth: units.GBps(100)},
		topology.Dim{Kind: topology.Switch, Size: 4, Bandwidth: units.GBps(50)},
	)
	for _, policy := range []collective.Policy{collective.Baseline, collective.Themis} {
		b.Run(policy.String(), func(b *testing.B) {
			var last units.Time
			for i := 0; i < b.N; i++ {
				eng := timeline.New()
				net := network.NewBackend(eng, top)
				ce := collective.NewEngine(net, policy, 64)
				var res collective.Result
				if err := ce.Start(collective.AllReduce, 1024*units.MB, collective.FullMachine(top), net.Machine(), func(r collective.Result) { res = r }); err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Run(); err != nil {
					b.Fatal(err)
				}
				last = res.Duration()
			}
			b.ReportMetric(last.Micros(), "sim_us")
		})
	}
}

// BenchmarkEngineEventThroughput measures raw discrete-event throughput,
// the simulator's fundamental cost driver.
func BenchmarkEngineEventThroughput(b *testing.B) {
	eng := timeline.New()
	b.ReportAllocs()
	var tick func()
	count := 0
	tick = func() {
		count++
		if count < b.N {
			eng.Schedule(units.Nanosecond, tick)
		}
	}
	eng.Schedule(0, tick)
	if _, err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchGPT3 is the Conv-4D system and the reduced-depth GPT-3 iteration
// that BenchmarkEndToEndGPT3 and BenchmarkEndToEndGPT3Straggler simulate.
func benchGPT3(b *testing.B) (*Machine, Workload) {
	m, err := NewMachine(MachineConfig{
		Topology:       "R(2)_FC(8)_R(8)_SW(4)",
		BandwidthsGBps: []float64{250, 200, 100, 50},
		Chunks:         16,
	})
	if err != nil {
		b.Fatal(err)
	}
	// A reduced-depth GPT-3 keeps per-iteration benches tractable.
	return m, Transformer(175e9/8, 12, 12288, 2048, 1, 2, 16)
}

// BenchmarkEndToEndGPT3 measures a full GPT-3 iteration simulation on the
// Conv-4D system — the representative heavy workload-layer run. Every
// rank runs alike, so the run folds onto one simulated rank.
func BenchmarkEndToEndGPT3(b *testing.B) {
	m, w := benchGPT3(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndGPT3Straggler is BenchmarkEndToEndGPT3 with one NPU
// computing 1.3x slower from the start, the resilience study's
// perturbation. A straggler acts on one rank, so the run cannot fold: it
// keeps measured the unfolded collective engine, rendezvous and per-rank
// state that every run with a straggler or failed NPU, every cluster job
// that shares the fabric and every imported per-rank trace still takes.
func BenchmarkEndToEndGPT3Straggler(b *testing.B) {
	m, w := benchGPT3(b)
	sc := &scenario.Scenario{Name: "straggler", Events: []scenario.Event{
		{Kind: scenario.StraggleNPU, NPU: m.NumNPUs() - 1, Factor: 1.3},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, _, err := m.run(w, false, sc)
		if err != nil {
			b.Fatal(err)
		}
		if rep.SimulatedRanks != m.NumNPUs() {
			b.Fatalf("simulated %d of %d ranks", rep.SimulatedRanks, m.NumNPUs())
		}
	}
}

// BenchmarkStartGPT3 measures Start alone, the set-up before a run's first
// event, on GPT-3 traces that fold onto one simulated rank: 48 layers on
// Conv-4096's R(2)_FC(8)_R(8)_SW(32), the gpt3_conv4096 bench workload,
// and all 96 layers on R(2)_FC(8)_R(8)_SW(2048), 262,144 NPUs. Each
// iteration builds a fresh simulator with the timer stopped, since a
// simulator is single-use and its network backend sizes per-link arrays
// for every NPU; the trace is generated once.
func BenchmarkStartGPT3(b *testing.B) {
	cases := []struct {
		name, topology string
		layers         int
	}{
		{"npus=4096", "R(2)_FC(8)_R(8)_SW(32)", 48},
		{"npus=262144", "R(2)_FC(8)_R(8)_SW(2048)", 96},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			m, err := NewMachine(MachineConfig{Topology: c.topology, BandwidthsGBps: []float64{1000, 200, 100, 50}, Chunks: 32})
			if err != nil {
				b.Fatal(err)
			}
			cfg := etgen.GPT3()
			cfg.Layers = c.layers
			tr, err := etgen.Transformer(m.top, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sim, err := core.NewSimulator(m.core)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := sim.Start(tr, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchPipeline is the 256-NPU pipeline (16 stages, 64 microbatches,
// 94,464 nodes) that BenchmarkTraceSetup ingests and BenchmarkPipelineRun
// simulates.
func benchPipeline(b *testing.B) (*Machine, etgen.PipelineConfig) {
	m, err := NewMachine(MachineConfig{Topology: "FC(8)_SW(8)_R(4)", BandwidthsGBps: []float64{250, 200, 50}})
	if err != nil {
		b.Fatal(err)
	}
	return m, etgen.PipelineConfig{
		Name: "pipeline", Stages: 16, MicroBatches: 64, FlopsPerStage: 1e12,
		ActivationBytes: 16 * units.MiB, GradBytes: 256 * units.MiB,
	}
}

// BenchmarkTraceSetup measures the set-up a pipeline-parallel run pays
// before its first event: the pipeline built by etgen.Pipeline, one list
// per stage class shared by its ranks, and compiled by Trace.Plans. With
// -benchmem its allocs/op show set-up allocating per list, not per node or
// per rank.
func BenchmarkTraceSetup(b *testing.B) {
	m, cfg := benchPipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := etgen.Pipeline(m.top, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tr.Plans(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceSetupPerRank measures ingestion of a trace whose every rank
// holds its own list, the shape et.Decode and convert produce: the same
// pipeline, encoded and decoded once, then compiled by Trace.Plans, which
// checks 256 lists and matches every rank's sends and receives, one
// channel group per rank pair. With -benchmem its allocs/op show it
// allocating per list, not per node.
func BenchmarkTraceSetupPerRank(b *testing.B) {
	m, cfg := benchPipeline(b)
	tr, err := etgen.Pipeline(m.top, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var doc bytes.Buffer
	if err := tr.Encode(&doc); err != nil {
		b.Fatal(err)
	}
	perRank, err := et.Decode(&doc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := perRank.Plans(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineRun simulates the same pipeline from its generated
// trace: compilation, every send and receive, and the stages' gradient
// All-Reduces. With -benchmem its allocs/op show the point-to-point run
// path allocating nothing per send or receive.
func BenchmarkPipelineRun(b *testing.B) {
	m, cfg := benchPipeline(b)
	tr, err := etgen.Pipeline(m.top, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := core.NewSimulator(m.core)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(tr); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkCollectiveByBlock measures event-driven simulation throughput
// per registered building block: a 256 MB All-Reduce over one 64-NPU
// dimension of each block. After the sub-benchmarks run it writes
// BENCH_topology.json with per-block wall time, event counts and simulated
// time, so CI tracks the dimension-model layer's cost per block.
func BenchmarkCollectiveByBlock(b *testing.B) {
	mk := func(kind topology.DimModel, size int) topology.Dim {
		return topology.Dim{Kind: kind, Size: size, Bandwidth: units.GBps(100), Latency: 500 * units.Nanosecond}
	}
	cases := []struct {
		name string
		dim  topology.Dim
	}{
		{"Ring", mk(topology.Ring, 64)},
		{"FullyConnected", mk(topology.FullyConnected, 64)},
		{"Switch", mk(topology.Switch, 64)},
		{"Mesh", mk(topology.Mesh, 64)},
		{"Torus2D", mk(topology.Torus2D(8, 8), 64)},
		{"OversubSwitch", mk(topology.OversubscribedSwitch(4), 64)},
	}
	type record struct {
		Block     string  `json:"block"`
		Notation  string  `json:"notation"`
		NPUs      int     `json:"npus"`
		NsPerOp   float64 `json:"ns_per_op"`
		Events    uint64  `json:"events_per_op"`
		SimTimeUs float64 `json:"sim_time_us"`
	}
	const size = 256 * units.MB
	records := make([]record, len(cases))
	for ci, c := range cases {
		top := topology.MustNew(c.dim)
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(size))
			var events uint64
			var simTime units.Time
			start := time.Now()
			for i := 0; i < b.N; i++ {
				eng := timeline.New()
				net := network.NewBackend(eng, top)
				ce := collective.NewEngine(net, collective.Baseline, 64)
				if err := ce.Start(collective.AllReduce, size, collective.FullMachine(top), net.Machine(), nil); err != nil {
					b.Fatal(err)
				}
				end, err := eng.Run()
				if err != nil {
					b.Fatal(err)
				}
				events, simTime = eng.Fired(), end
			}
			// The closure runs once per auto-scaling round; the last round
			// (largest N) leaves the steadiest estimate in the record.
			records[ci] = record{
				Block:     c.name,
				Notation:  c.dim.Format(),
				NPUs:      c.dim.Size,
				NsPerOp:   float64(time.Since(start).Nanoseconds()) / float64(b.N),
				Events:    events,
				SimTimeUs: simTime.Micros(),
			}
		})
	}
	// Sub-benchmarks can be filtered away (-bench 'ByBlock/Ring'); only
	// write the artifact when every block actually ran, so a partial run
	// never replaces a complete capture with zeroed rows.
	for _, r := range records {
		if r.Block == "" {
			return
		}
	}
	doc, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_topology.json", append(doc, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
