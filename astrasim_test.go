package astrasim

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func testMachine(t *testing.T, cfg MachineConfig) *Machine {
	t.Helper()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func smallRing(t *testing.T) *Machine {
	return testMachine(t, MachineConfig{
		Topology:       "R(8)",
		BandwidthsGBps: []float64{300},
	})
}

func TestNewMachineDefaults(t *testing.T) {
	m := smallRing(t)
	if m.NumNPUs() != 8 {
		t.Errorf("NumNPUs = %d", m.NumNPUs())
	}
	if m.TopologySpec() != "R(8)" {
		t.Errorf("TopologySpec = %q", m.TopologySpec())
	}
	if m.AggregateBandwidthGBps() != 300 {
		t.Errorf("AggregateBandwidthGBps = %v", m.AggregateBandwidthGBps())
	}
}

func TestNewMachineErrors(t *testing.T) {
	cases := []MachineConfig{
		{Topology: "bogus", BandwidthsGBps: []float64{1}},
		{Topology: "R(4)", BandwidthsGBps: []float64{1, 2}},
		{Topology: "R(4)", BandwidthsGBps: []float64{100}, Scheduler: "magic"},
		{Topology: "R(4)", BandwidthsGBps: []float64{100},
			Memory: &MemoryConfig{Pool: &PoolConfig{Design: "quantum"}}},
		{Topology: "R(4)", BandwidthsGBps: []float64{100},
			Memory: &MemoryConfig{Pool: &PoolConfig{Design: "hierarchical"}}}, // missing counts
	}
	for i, c := range cases {
		if _, err := NewMachine(c); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestRunAllReduce(t *testing.T) {
	m := smallRing(t)
	rep, err := m.Run(AllReduce(64 << 20))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
	if rep.ExposedComm != rep.Makespan {
		t.Errorf("pure collective should be all comm: %+v", rep)
	}
	sum := rep.Compute + rep.ExposedComm + rep.ExposedRemoteMem + rep.ExposedLocalMem + rep.Idle
	if sum != rep.Makespan {
		t.Errorf("breakdown sums to %v, want %v", sum, rep.Makespan)
	}
	if len(rep.TrafficPerDimMB) != 1 || rep.TrafficPerDimMB[0] <= 0 {
		t.Errorf("traffic = %v", rep.TrafficPerDimMB)
	}
}

func TestCollectiveOps(t *testing.T) {
	m := smallRing(t)
	for _, op := range []string{"all_reduce", "all_gather", "reduce_scatter", "all_to_all"} {
		rep, err := m.Run(Collective(op, 32<<20))
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if rep.Makespan <= 0 {
			t.Errorf("%s: zero makespan", op)
		}
	}
	if _, err := m.Run(Collective("broadcast", 1024)); err == nil {
		t.Error("unknown op accepted")
	}
}

func TestEstimateMatchesRun(t *testing.T) {
	m := testMachine(t, MachineConfig{
		Topology:       "R(2)_FC(8)_R(8)_SW(4)",
		BandwidthsGBps: []float64{250, 200, 100, 50},
	})
	rep, err := m.Run(AllReduce(1 << 30))
	if err != nil {
		t.Fatal(err)
	}
	est, err := m.EstimateCollective("all_reduce", 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(rep.Makespan) / float64(est)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("run %v vs estimate %v (ratio %.3f)", rep.Makespan, est, ratio)
	}
	if _, err := m.EstimateCollective("nope", 1); err == nil {
		t.Error("unknown op accepted by estimator")
	}
	for _, size := range []int64{0, -1 << 30} {
		if _, err := m.EstimateCollective("all_reduce", size); err == nil {
			t.Errorf("size %d accepted by estimator", size)
		}
	}
}

// TestEstimateMatchesRunAllBlocks drives every registered building block
// through the full public path — shape-notation parse, closed-form
// EstimateCollective, and event-driven Machine.Run — and checks the two
// model paths agree for All-Reduce and All-Gather.
func TestEstimateMatchesRunAllBlocks(t *testing.T) {
	specs := []struct {
		topo string
		bw   []float64
	}{
		{"R(8)", []float64{100}},
		{"FC(8)", []float64{100}},
		{"SW(8)", []float64{100}},
		{"M(8)", []float64{100}},
		{"T2D(4,2)", []float64{100}},
		{"SW(8,4)", []float64{400}},
		{"T2D(4,4)_SW(4,2)", []float64{200, 100}},
		{"M(4)_T2D(2,2)_SW(4)", []float64{200, 100, 50}},
	}
	for _, s := range specs {
		m := testMachine(t, MachineConfig{Topology: s.topo, BandwidthsGBps: s.bw})
		if got := m.TopologySpec(); got != s.topo {
			t.Errorf("%s: canonical spec %q does not round-trip", s.topo, got)
		}
		for _, op := range []string{"all_reduce", "all_gather"} {
			rep, err := m.Run(Collective(op, 256<<20))
			if err != nil {
				t.Fatalf("%s/%s: %v", s.topo, op, err)
			}
			est, err := m.EstimateCollective(op, 256<<20)
			if err != nil {
				t.Fatalf("%s/%s: %v", s.topo, op, err)
			}
			ratio := float64(rep.Makespan) / float64(est)
			if ratio < 0.85 || ratio > 1.15 {
				t.Errorf("%s/%s: run %v vs estimate %v (ratio %.3f)", s.topo, op, rep.Makespan, est, ratio)
			}
		}
	}
}

func TestThemisSchedulerSelection(t *testing.T) {
	base := testMachine(t, MachineConfig{
		Topology:       "R(16)_R(8)",
		BandwidthsGBps: []float64{50, 400},
	})
	themis := testMachine(t, MachineConfig{
		Topology:       "R(16)_R(8)",
		BandwidthsGBps: []float64{50, 400},
		Scheduler:      "themis",
	})
	rb, err := base.Run(AllReduce(512 << 20))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := themis.Run(AllReduce(512 << 20))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Makespan >= rb.Makespan {
		t.Errorf("themis (%v) should beat baseline (%v) here", rt.Makespan, rb.Makespan)
	}
}

func TestPaperWorkloadsRunOnSmallMachines(t *testing.T) {
	// GPT-3's MP=16 fits a 32-NPU machine with DP=2.
	m := testMachine(t, MachineConfig{
		Topology:       "R(16)_R(2)",
		BandwidthsGBps: []float64{300, 100},
	})
	for _, w := range []Workload{GPT3(), DLRM()} {
		rep, err := m.Run(w)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		if rep.Makespan <= 0 || rep.Compute <= 0 {
			t.Errorf("%s: report %+v", w.Name(), rep)
		}
	}
}

func TestCustomTransformer(t *testing.T) {
	m := smallRing(t)
	rep, err := m.Run(Transformer(1e9, 4, 1024, 512, 1, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan <= 0 {
		t.Error("zero makespan")
	}
}

func TestPipelineWorkload(t *testing.T) {
	m := smallRing(t)
	rep, err := m.Run(Pipeline(4, 4, 1e12, 8<<20, 32<<20))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Idle <= 0 {
		t.Error("pipeline should expose bubble idle time")
	}
}

func TestMoEWithPool(t *testing.T) {
	m := testMachine(t, MachineConfig{
		Topology:       "SW(16)_SW(16)",
		BandwidthsGBps: []float64{460, 100},
		PeakTFLOPS:     2048,
		HBMGBps:        4096,
		Memory: &MemoryConfig{
			Pool: &PoolConfig{
				Design: "hierarchical", Nodes: 16, GPUsPerNode: 16,
				OutSwitches: 16, RemoteGroups: 256,
				RemoteGroupGBps: 100, GPUSideGBps: 8192, InNodeGBps: 256,
			},
		},
	})
	rep, err := m.Run(MoE1T(true))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExposedComm <= 0 {
		t.Errorf("MoE should expose communication: %+v", rep)
	}
}

func TestTraceJSONRoundTrip(t *testing.T) {
	const traceJSON = `{
	  "name": "manual", "num_npus": 4,
	  "graphs": [
	    {"npu": 0, "nodes": [{"id":1,"kind":"COMM_COLL","collective":"ALL_REDUCE","comm_bytes":1048576}]},
	    {"npu": 1, "nodes": [{"id":1,"kind":"COMM_COLL","collective":"ALL_REDUCE","comm_bytes":1048576}]},
	    {"npu": 2, "nodes": [{"id":1,"kind":"COMM_COLL","collective":"ALL_REDUCE","comm_bytes":1048576}]},
	    {"npu": 3, "nodes": [{"id":1,"kind":"COMM_COLL","collective":"ALL_REDUCE","comm_bytes":1048576}]}
	  ]}`
	m := testMachine(t, MachineConfig{Topology: "R(4)", BandwidthsGBps: []float64{100}})
	rep, err := m.Run(TraceJSON(strings.NewReader(traceJSON)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan <= 0 {
		t.Error("zero makespan from JSON trace")
	}
}

func TestPyTorchTraceJSON(t *testing.T) {
	const pt = `{
	  "num_npus": 2,
	  "graphs": [
	    {"rank": 0, "nodes": [
	      {"id": 1, "name": "aten::matmul", "attrs": {"flops": 1e9}},
	      {"id": 2, "name": "nccl:all_reduce", "ctrl_deps": [1], "attrs": {"comm_bytes": 1048576}}
	    ]},
	    {"rank": 1, "nodes": [
	      {"id": 1, "name": "aten::matmul", "attrs": {"flops": 1e9}},
	      {"id": 2, "name": "nccl:all_reduce", "ctrl_deps": [1], "attrs": {"comm_bytes": 1048576}}
	    ]}
	  ]}`
	m := testMachine(t, MachineConfig{Topology: "R(2)", BandwidthsGBps: []float64{100}})
	rep, err := m.Run(PyTorchTraceJSON(bytes.NewBufferString(pt)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compute <= 0 || rep.ExposedComm <= 0 {
		t.Errorf("converted trace breakdown: %+v", rep)
	}
}

func TestReportDurationsAreWallClockLike(t *testing.T) {
	m := smallRing(t)
	rep, err := m.Run(AllReduce(300 << 20)) // ~ a few ms
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan < time.Microsecond || rep.Makespan > time.Second {
		t.Errorf("implausible makespan %v", rep.Makespan)
	}
}

func TestFSDPWorkload(t *testing.T) {
	m := smallRing(t)
	rep, err := m.Run(FSDP(2e9, 8, 2048, 512, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compute <= 0 || rep.ExposedComm <= 0 {
		t.Errorf("FSDP breakdown: %+v", rep)
	}
}

func TestThreeDWorkload(t *testing.T) {
	m := testMachine(t, MachineConfig{
		Topology:       "R(8)_SW(4)",
		BandwidthsGBps: []float64{300, 50},
	})
	// 32 NPUs = MP4 x DP2 x PP4.
	rep, err := m.Run(ThreeD(4e9, 8, 2048, 512, 1, 2, 4, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compute <= 0 || rep.ExposedComm <= 0 || rep.Idle <= 0 {
		t.Errorf("3D breakdown should show compute, comm, and pipeline bubbles: %+v", rep)
	}
}

// TestDeterminism: the simulator must be bit-identical across runs — the
// single-threaded event engine with FIFO tie-breaking guarantees it.
func TestDeterminism(t *testing.T) {
	run := func() *Report {
		m := testMachine(t, MachineConfig{
			Topology:       "R(4)_SW(4)",
			BandwidthsGBps: []float64{200, 50},
			Scheduler:      "themis",
		})
		rep, err := m.Run(ThreeD(4e9, 8, 2048, 512, 1, 2, 4, 2, 4))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || a.Compute != b.Compute ||
		a.ExposedComm != b.ExposedComm || a.Idle != b.Idle || a.Events != b.Events {
		t.Errorf("non-deterministic simulation:\n%+v\n%+v", a, b)
	}
}

func TestRunWithTimeline(t *testing.T) {
	m := smallRing(t)
	var buf bytes.Buffer
	rep, err := m.RunWithTimeline(Pipeline(4, 2, 1e12, 8<<20, 0), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
	// The output must be a valid Chrome trace: a JSON array containing
	// thread metadata and complete events.
	var decoded []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	var complete, meta int
	for _, e := range decoded {
		switch e["ph"] {
		case "X":
			complete++
		case "M":
			meta++
		}
	}
	if meta != m.NumNPUs() {
		t.Errorf("%d thread rows, want %d", meta, m.NumNPUs())
	}
	if complete == 0 {
		t.Error("no activity intervals recorded")
	}
}

func TestIterationsScaleLinearly(t *testing.T) {
	m := smallRing(t)
	one, err := m.Run(DLRM())
	if err != nil {
		t.Fatal(err)
	}
	three, err := m.Run(Iterations(DLRM(), 3))
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(three.Makespan) / float64(one.Makespan)
	if ratio < 2.95 || ratio > 3.05 {
		t.Errorf("3 iterations took %.3fx of one, want ~3x", ratio)
	}
}

func TestIterationsWithP2P(t *testing.T) {
	m := smallRing(t)
	rep, err := m.Run(Iterations(Pipeline(4, 2, 1e12, 8<<20, 0), 2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
}

// TestIterationsWithNegativeIDs: a trace whose IDs span zero runs for two
// iterations in exactly twice its single-iteration time.
func TestIterationsWithNegativeIDs(t *testing.T) {
	const doc = `{"num_npus": 2, "graphs": [
	  {"npu": 0, "nodes": [{"id": -1, "kind": "COMP", "flops": 1e12},
	    {"id": 5, "kind": "COMM_COLL", "deps": [-1], "collective": "ALL_REDUCE", "comm_bytes": 1048576}]},
	  {"npu": 1, "nodes": [{"id": -1, "kind": "COMP", "flops": 1e12},
	    {"id": 5, "kind": "COMM_COLL", "deps": [-1], "collective": "ALL_REDUCE", "comm_bytes": 1048576}]}]}`
	m := testMachine(t, MachineConfig{Topology: "R(2)", BandwidthsGBps: []float64{100}})
	_, one, err := m.run(TraceJSON(strings.NewReader(doc)), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, two, err := m.run(Iterations(TraceJSON(strings.NewReader(doc)), 2), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if two.Makespan != 2*one.Makespan {
		t.Errorf("2 iterations took %v, want exactly 2 x %v", two.Makespan, one.Makespan)
	}
}

func TestIterationsEdgeCases(t *testing.T) {
	m := smallRing(t)
	for _, c := range []struct {
		w    Workload
		want string
	}{
		{Iterations(DLRM(), 0), "astrasim: Iterations needs n >= 1, got 0"},
		{Iterations(DLRM(), -3), "astrasim: Iterations needs n >= 1, got -3"},
		{Iterations(Iterations(DLRM(), math.MaxInt/2+1), 2), "astrasim: 4611686018427387904 x 2 iterations overflow int"},
	} {
		if _, err := m.Run(c.w); err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %q", c.w.Name(), err, c.want)
		}
	}
	// One iteration is the workload itself.
	one, err := m.Run(DLRM())
	if err != nil {
		t.Fatal(err)
	}
	same, err := m.Run(Iterations(DLRM(), 1))
	if err != nil {
		t.Fatal(err)
	}
	if same.Makespan != one.Makespan || same.Events != one.Events {
		t.Errorf("1 iteration: %v in %d events, want %v in %d", same.Makespan, same.Events, one.Makespan, one.Events)
	}
}

// TestIterationsPinnedOutputs pins multi-iteration results on the
// paper's Conv-4D machine: nested counts multiply. Both workloads are
// symmetric, so each run simulates one rank for all 512; simulating every
// rank fires 12,288 and 6,499,328 events for the same makespans.
func TestIterationsPinnedOutputs(t *testing.T) {
	m := testMachine(t, MachineConfig{Topology: "R(2)_FC(8)_R(8)_SW(4)", BandwidthsGBps: []float64{250, 200, 100, 50}})
	cases := []struct {
		w        Workload
		makespan time.Duration
		events   uint64
	}{
		{Iterations(Iterations(DLRM(), 2), 3), 33834251 * time.Nanosecond, 6156},
		{Iterations(GPT3(), 2), 3026873509 * time.Nanosecond, 197510},
	}
	if testing.Short() {
		cases = cases[:1] // GPT-3 takes about half a second
	}
	for _, c := range cases {
		rep, err := m.Run(c.w)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Makespan != c.makespan || rep.Events != c.events || rep.SimulatedRanks != 1 {
			t.Errorf("%s: %v in %d events on %d simulated ranks, want %v in %d on 1",
				c.w.Name(), rep.Makespan, rep.Events, rep.SimulatedRanks, c.makespan, c.events)
		}
	}
}

// A report counts every collective that ran, not the capped collective
// log: one GPT-3 iteration on the paper's Conv-4D machine runs 12,304,
// far past the log's default of 1,024 entries.
func TestReportCountsEveryCollective(t *testing.T) {
	m := testMachine(t, MachineConfig{Topology: "R(2)_FC(8)_R(8)_SW(4)", BandwidthsGBps: []float64{250, 200, 100, 50}})
	rep, err := m.Run(GPT3())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Collectives != 12304 {
		t.Errorf("%s: %d collectives, want 12304", rep.Workload, rep.Collectives)
	}
}

func TestTransitCongestionSlowsStridedPipelines(t *testing.T) {
	// A pipeline whose stages are adjacent on the ring: activations hop
	// over intermediate NPUs only when stages are blocks of >1 rank. Use
	// 2 ranks per stage so sends cross one transit NPU.
	run := func(congestion bool) time.Duration {
		m := testMachine(t, MachineConfig{
			Topology:               "R(16)",
			BandwidthsGBps:         []float64{100},
			ModelTransitCongestion: congestion,
		})
		rep, err := m.Run(Pipeline(8, 8, 1e10, 64<<20, 0))
		if err != nil {
			t.Fatal(err)
		}
		return rep.Makespan
	}
	without, with := run(false), run(true)
	if with <= without {
		t.Errorf("transit congestion should slow multi-hop pipeline traffic: %v vs %v", with, without)
	}
}
