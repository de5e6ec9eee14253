package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/collective"
	"repro/internal/compute"
	"repro/internal/et"
	"repro/internal/etgen"
	"repro/internal/memory"
	"repro/internal/scenario"
	"repro/internal/topology"
	"repro/internal/units"
)

// runMode runs trace on a fresh simulator; with unfolded set it simulates
// every rank, as a run that cannot fold does.
func runMode(t *testing.T, cfg Config, trace *et.Trace, unfolded bool) *RunStats {
	t.Helper()
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.unfolded = unfolded
	stats, err := sim.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// withoutEvents returns a copy of s without the two fields a fold changes:
// the events fired and the ranks simulated. A nil s stays nil.
func withoutEvents(s *RunStats) *RunStats {
	if s == nil {
		return nil
	}
	c := *s
	c.Events, c.SimulatedRanks = 0, 0
	return &c
}

// checkFoldExact runs trace folded and unfolded and requires the same
// RunStats but for Events and SimulatedRanks. It returns the folded run.
func checkFoldExact(t *testing.T, name string, cfg Config, trace *et.Trace) *RunStats {
	t.Helper()
	folded := runMode(t, cfg, trace, false)
	unfolded := runMode(t, cfg, trace, true)
	if unfolded.SimulatedRanks != trace.NumNPUs {
		t.Fatalf("%s: the unfolded run simulated %d of %d ranks", name, unfolded.SimulatedRanks, trace.NumNPUs)
	}
	if !reflect.DeepEqual(withoutEvents(folded), withoutEvents(unfolded)) {
		t.Fatalf("%s: folded onto %d ranks, the run differs from the unfolded one: makespan %v vs %v, %d vs %d collectives",
			name, folded.SimulatedRanks, folded.Makespan, unfolded.Makespan, folded.CollectiveCount, unfolded.CollectiveCount)
	}
	if folded.Events > unfolded.Events {
		t.Fatalf("%s: folded onto %d ranks, the run fired %d events, more than unfolded (%d)",
			name, folded.SimulatedRanks, folded.Events, unfolded.Events)
	}
	return folded
}

// perBlock gives each block of block ranks its own copy of tr's lists, with
// compute scaled by 1 + b/4 in block b, so the blocks run different plans.
func perBlock(tr *et.Trace, block int) *et.Trace {
	out := &et.Trace{Name: tr.Name, NumNPUs: tr.NumNPUs}
	lists := make(map[int][]et.Node)
	for _, g := range tr.Graphs {
		b := g.NPU / block
		if lists[b] == nil {
			nodes := slices.Clone(g.Nodes)
			for i := range nodes {
				nodes[i].FLOPs *= 1 + float64(b)/4
			}
			lists[b] = nodes
		}
		out.Graphs = append(out.Graphs, &et.Graph{NPU: g.NPU, Nodes: lists[b]})
	}
	return out
}

// TestFoldMatchesUnfolded: a folded run reports exactly what the same run
// reports with every rank simulated, but for the events fired, across
// machines of one and several dimensions (one where MP and DP split a
// dimension, one whose blocks run different plans, so it folds by less
// than the whole machine), the symmetric generators, both policies, 1, 7
// and 64 chunks, 1 and 3 iterations, and plain runs, transit charging, a
// link degradation and a memory pool with in-switch collectives.
func TestFoldMatchesUnfolded(t *testing.T) {
	machines := []struct {
		spec  string
		gbps  []float64
		block int // for perBlock: the outermost dimension's stride
	}{
		{"R(8)", []float64{300}, 4},
		{"R(16)", []float64{350}, 8},
		{"R(2)_FC(4)_SW(2)", []float64{250, 200, 50}, 8},
		{"T2D(2,2)_SW(4,2)", []float64{200, 50}, 4},
	}
	small := etgen.TransformerConfig{Name: "t", Params: 4e9, Layers: 2, Hidden: 1024, SeqLen: 256, MicroBatch: 1, BytesPerElem: 2}
	transformer := func(mp int) func(*topology.Topology) (*et.Trace, error) {
		return func(top *topology.Topology) (*et.Trace, error) {
			cfg := small
			cfg.MP = mp
			return etgen.Transformer(top, cfg)
		}
	}
	moe := func(inSwitch bool) func(*topology.Topology) (*et.Trace, error) {
		return func(top *topology.Topology) (*et.Trace, error) {
			cfg := etgen.MoE1T(inSwitch)
			cfg.Layers = 2
			return etgen.MoETrace(top, cfg)
		}
	}
	single := func(c et.CollectiveType) func(*topology.Topology) (*et.Trace, error) {
		return func(top *topology.Topology) (*et.Trace, error) {
			return etgen.SingleCollective(top, c, 8*units.MiB), nil
		}
	}
	gens := []struct {
		name string
		gen  func(*topology.Topology) (*et.Trace, error)
	}{
		{"transformer MP1", transformer(1)},
		{"transformer MP2", transformer(2)},
		{"transformer MP4", transformer(4)},
		{"DLRM", func(top *topology.Topology) (*et.Trace, error) { return etgen.DLRMTrace(top, etgen.DLRM()) }},
		{"MoE", moe(false)},
		{"MoE in-switch", moe(true)},
		{"FSDP", func(top *topology.Topology) (*et.Trace, error) {
			return etgen.FSDP(top, etgen.FSDPConfig{Model: small})
		}},
		{"All-Reduce", single(et.CollAllReduce)},
		{"All-to-All", single(et.CollAllToAll)},
	}
	variants := []struct {
		name string
		set  func(*Config)
	}{
		{"plain", func(*Config) {}},
		{"transit", func(c *Config) { c.ModelTransitCongestion = true }},
		{"degraded", func(c *Config) {
			dim := c.Topology.NumDims() - 1
			c.Scenario = &scenario.Scenario{Name: "degrade", Events: []scenario.Event{
				{Kind: scenario.DegradeLink, At: 50 * units.Microsecond, Dim: dim, Factor: 0.25},
				{Kind: scenario.RestoreLink, At: 2 * units.Millisecond, Dim: dim},
			}}
		}},
		{"pool", func(c *Config) {
			c.Memory.HasPool = true
			c.Memory.Pool = memory.PoolConfig{
				Design: memory.Hierarchical, NumNodes: 2, GPUsPerNode: 8, NumOutSwitches: 2, NumRemoteGroups: 4,
				RemoteGroupBW: units.GBps(100), GPUSideOutFabricBW: units.GBps(100), InNodeFabricBW: units.GBps(256),
			}
		}},
	}
	policies := []collective.Policy{collective.Baseline, collective.Themis}
	chunks := []int{1, 7, 64}
	iterations := []int{1, 3}
	if testing.Short() {
		chunks = chunks[1:2]
	}
	var runs, whole, partial int
	for _, m := range machines {
		top, err := topology.ParseWithBandwidth(m.spec, m.gbps, 500*units.Nanosecond)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range gens {
			base, err := g.gen(top)
			if err != nil {
				t.Fatalf("%s on %s: %v", g.name, m.spec, err)
			}
			for li, tr := range []*et.Trace{base, perBlock(base, m.block)} {
				for _, v := range variants {
					for _, policy := range policies {
						for _, k := range chunks {
							for _, iters := range iterations {
								cfg := Config{
									Topology:       top,
									Compute:        compute.A100(),
									Memory:         memory.System{Local: memory.LocalModel{Latency: units.Microsecond, Bandwidth: units.GBps(2039)}},
									Policy:         policy,
									Chunks:         k,
									RecordTimeline: true,
								}
								v.set(&cfg)
								tr.Iterations = iters
								name := fmt.Sprintf("%s on %s (%s lists), %s, %v, %d chunks, %d iterations",
									g.name, m.spec, []string{"shared", "per-block"}[li], v.name, policy, k, iters)
								folded := checkFoldExact(t, name, cfg, tr)
								runs++
								switch n := folded.SimulatedRanks; {
								case n == 1:
									whole++
								case n < tr.NumNPUs:
									partial++
								}
							}
						}
					}
				}
			}
		}
	}
	if whole == 0 || partial == 0 {
		t.Errorf("of %d runs, %d folded onto one rank and %d onto several: the fold was not exercised", runs, whole, partial)
	}
	t.Logf("%d runs: %d folded onto one rank, %d onto several", runs, whole, partial)
}

// tieConfig is the tie probes' machine: R(8) at 32 GB/s and 1 ns, one
// chunk per collective, recording each rank's timeline.
func tieConfig(t *testing.T) Config {
	top := topology.MustNew(topology.Dim{Kind: topology.Ring, Size: 8, Bandwidth: units.GBps(32), Latency: units.Nanosecond})
	cfg := testConfig(t, top)
	cfg.Compute = compute.A100()
	cfg.Chunks = 1
	cfg.RecordTimeline = true
	return cfg
}

// probeTrace is the tie probe: on every rank of R(8), a 1 GFLOP compute
// node and then two All-Reduces, listed in the given order, each over its
// spans (nil for the whole machine); with chained set the second waits
// for the first, otherwise both wait only for the compute node.
func probeTrace(first, second []et.SpanRef, firstBytes, secondBytes int64, chained bool) *et.Trace {
	group := func(spans []et.SpanRef) *et.GroupRef {
		if spans == nil {
			return nil
		}
		return &et.GroupRef{Spans: spans}
	}
	dep := 1
	if chained {
		dep = 2
	}
	nodes := []et.Node{
		{ID: 1, Kind: et.KindCompute, FLOPs: 1e9},
		{ID: 2, Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: firstBytes, Deps: []int{1}, Group: group(first)},
		{ID: 3, Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: secondBytes, Deps: []int{dep}, Group: group(second)},
	}
	tr := &et.Trace{Name: "probe", NumNPUs: 8}
	for r := 0; r < 8; r++ {
		tr.Graphs = append(tr.Graphs, &et.Graph{NPU: r, Nodes: nodes})
	}
	return tr
}

// finishTimes returns when each rank's last activity ended, read from a
// run's recorded timeline.
func finishTimes(s *RunStats) []units.Time {
	end := make([]units.Time, len(s.PerNPU))
	for _, iv := range s.Timeline {
		end[iv.NPU] = max(end[iv.NPU], iv.End)
	}
	return end
}

// TestFoldTieProbes: a rank that issues two collectives at once on
// different groups makes the run itself asymmetric, since which of them
// reserves a shared link first depends on the rank. Every rank runs the
// same plan, yet the ranks finish at different times, so no fold onto
// rank 0 could be exact: these runs do not fold and keep their times.
// Chained, the same two All-Reduces leave every rank alike, and the run
// folds onto one rank.
func TestFoldTieProbes(t *testing.T) {
	mp := []et.SpanRef{{Phys: 0, K: 2, Stride: 1}}
	dp := []et.SpanRef{{Phys: 0, K: 4, Stride: 2}}
	repeat := func(t0 units.Time, n int) []units.Time {
		ts := make([]units.Time, n)
		for i := range ts {
			ts[i] = t0
		}
		return ts
	}
	cases := []struct {
		name string
		tr   *et.Trace
		sim  int
		want []units.Time
	}{
		{"P1: MP 1 MiB, then DP 3 MiB", probeTrace(mp, dp, 1<<20, 3<<20, false), 8, []units.Time{
			544948504, 725172504, 544948504, 725172504, 544948504, 725172504, 577714504, 725172504}},
		{"P1: DP 3 MiB, then MP 1 MiB", probeTrace(dp, mp, 3<<20, 1<<20, false), 8,
			append(repeat(364724504, 6), repeat(397490504, 2)...)},
		{"P2: whole machine 3 MiB, then MP 1 MiB", probeTrace(nil, mp, 3<<20, 1<<20, false), 8,
			append(repeat(413880504, 6), repeat(446642504, 2)...)},
		{"P1 chained", probeTrace(mp, dp, 1<<20, 3<<20, true), 1, repeat(364729504, 8)},
	}
	for _, c := range cases {
		folded := checkFoldExact(t, c.name, tieConfig(t), c.tr)
		if folded.SimulatedRanks != c.sim {
			t.Errorf("%s: simulated %d ranks, want %d", c.name, folded.SimulatedRanks, c.sim)
		}
		if got := finishTimes(folded); !slices.Equal(got, c.want) {
			t.Errorf("%s: ranks finish at %v (ps), want %v", c.name, got, c.want)
		}
	}
}

// TestFoldCrossBlockGroupsNeedOnePlan: where blocks run different plans, a
// group that leaves its block completes its instances' members block
// after block, interleaving the blocks' next collectives; a
// Reduce-Scatter in one block and an All-Gather in the other then finish
// at one instant in alternation, which no log of whole blocks reproduces.
// Such a run does not fold.
func TestFoldCrossBlockGroupsNeedOnePlan(t *testing.T) {
	top := topology.MustNew(
		topology.Dim{Kind: topology.Ring, Size: 4, Bandwidth: units.GBps(32), Latency: units.Nanosecond},
		topology.Dim{Kind: topology.Ring, Size: 2, Bandwidth: units.GBps(32), Latency: units.Nanosecond},
	)
	cfg := testConfig(t, top)
	cfg.Chunks = 1
	list := func(last et.CollectiveType) []et.Node {
		return []et.Node{
			{ID: 1, Kind: et.KindCompute, FLOPs: 1e9},
			{ID: 2, Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: 1 << 20, Deps: []int{1},
				Group: &et.GroupRef{Spans: []et.SpanRef{{Phys: 1, K: 2, Stride: 1}}}},
			{ID: 3, Kind: et.KindComm, Collective: last, CommBytes: 1 << 20, Deps: []int{2},
				Group: &et.GroupRef{Spans: []et.SpanRef{{Phys: 0, K: 2, Stride: 1}}}},
		}
	}
	rs, ag := list(et.CollReduceScatter), list(et.CollAllGather)
	tr := &et.Trace{Name: "two plans", NumNPUs: 8}
	for r := 0; r < 8; r++ {
		nodes := rs
		if r >= 4 {
			nodes = ag
		}
		tr.Graphs = append(tr.Graphs, &et.Graph{NPU: r, Nodes: nodes})
	}
	stats := checkFoldExact(t, "two plans", cfg, tr)
	if stats.SimulatedRanks != 8 {
		t.Errorf("simulated %d ranks, want all 8", stats.SimulatedRanks)
	}
	var ops []collective.Op
	for _, res := range stats.Collectives[4:] {
		ops = append(ops, res.Op)
	}
	want := []collective.Op{collective.ReduceScatter, collective.AllGather, collective.ReduceScatter, collective.AllGather}
	if !slices.Equal(ops, want) {
		t.Errorf("last four collectives %v, want %v", ops, want)
	}
}

// stubArbiter is a flow controller and remote arbiter that never slows
// anything down.
type stubArbiter struct{}

func (stubArbiter) FlowStarted(int) (float64, bool) { return 1, false }
func (stubArbiter) FlowFinished(int)                {}
func (stubArbiter) RemoteStarted() float64          { return 1 }
func (stubArbiter) RemoteFinished()                 {}

// TestFoldBlock: which runs fold, and onto how many ranks.
func TestFoldBlock(t *testing.T) {
	top, err := topology.ParseWithBandwidth("R(2)_FC(4)_SW(2)", []float64{250, 200, 50}, 500*units.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	gpt, err := etgen.Transformer(top, etgen.TransformerConfig{Name: "t", Params: 4e9, Layers: 2, Hidden: 1024, SeqLen: 256, MicroBatch: 1, BytesPerElem: 2, MP: 4})
	if err != nil {
		t.Fatal(err)
	}
	dlrm, err := etgen.DLRMTrace(top, etgen.DLRM())
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := etgen.Pipeline(top, etgen.PipelineConfig{Name: "pp", Stages: 2, MicroBatches: 2, FlopsPerStage: 1e12, ActivationBytes: units.MiB, GradBytes: units.MiB})
	if err != nil {
		t.Fatal(err)
	}
	with := func(set func(*Config)) Config {
		cfg := testConfig(t, top)
		set(&cfg)
		return cfg
	}
	events := func(kind scenario.Kind) func(*Config) {
		return func(c *Config) {
			c.Scenario = &scenario.Scenario{Name: "s", Events: []scenario.Event{{Kind: kind, NPU: 3, Factor: 1.3, Recovery: units.Microsecond}}}
		}
	}
	plain := func(*Config) {}
	cases := []struct {
		name string
		cfg  Config
		tr   *et.Trace
		sim  int
	}{
		{"transformer", with(plain), gpt, 1},
		{"DLRM, per-block lists", with(plain), perBlock(dlrm, 8), 2},
		{"DLRM, per-rank lists", with(plain), unshare(dlrm), 16},
		{"transformer, per-block lists", with(plain), perBlock(gpt, 8), 16},
		{"pipeline", with(plain), pipe, 16},
		{"straggler", with(events(scenario.StraggleNPU)), gpt, 16},
		{"failed NPU", with(events(scenario.FailNPU)), gpt, 16},
		{"failed link", with(func(c *Config) {
			c.Scenario = &scenario.Scenario{Name: "s", Events: []scenario.Event{{Kind: scenario.FailLink, Dim: 1}}}
		}), gpt, 1},
		{"flow controller", with(func(c *Config) { c.FlowController = stubArbiter{} }), gpt, 16},
		{"remote arbiter", with(func(c *Config) { c.RemoteArbiter = stubArbiter{} }), gpt, 16},
	}
	for _, c := range cases {
		if got := checkFoldExact(t, c.name, c.cfg, c.tr).SimulatedRanks; got != c.sim {
			t.Errorf("%s: simulated %d ranks, want %d", c.name, got, c.sim)
		}
	}
}

// A span whose instance leaves its dimension from some ranks fails Start
// with the span error, folded or not: on R(8), {K 2, stride 3} reaches
// rank 9 from rank 6. A folded run simulates rank 0 alone, whose instance
// {0, 3} would complete.
func TestSpanLeavingItsDimensionFailsStart(t *testing.T) {
	top := topology.MustNew(topology.Dim{Kind: topology.Ring, Size: 8, Bandwidth: units.GBps(100)})
	tr := probeTrace([]et.SpanRef{{Phys: 0, K: 2, Stride: 3}}, nil, 1<<20, 1<<20, true)
	const want = "core: npu 6 node 2: collective: span 0 (K=2, stride=3) exceeds dim 0 size 8"
	for _, unfolded := range []bool{false, true} {
		sim, err := NewSimulator(testConfig(t, top))
		if err != nil {
			t.Fatal(err)
		}
		sim.unfolded = unfolded
		if err := sim.Start(tr, 0); err == nil || err.Error() != want {
			t.Errorf("unfolded %v: Start error %v, want %q", unfolded, err, want)
		}
	}
}

// Start decides each layout once for every rank, and walks the ranks only
// when a layout fails somewhere, so a layout that fails only at ranks that
// do not use it passes, and a failure names the lowest failing rank and,
// there, the first node of the plan's first failing layout. On
// R(2)_R(8), where rank r sits at position r/2 of dimension 1, {K 2,
// stride s} on dimension 1 fails at positions 6-7 for stride 3, 2-5 for
// stride 6 and 3-4 for stride 5.
func TestLayoutFailingAtSomeRanks(t *testing.T) {
	top := topology.MustNew(
		topology.Dim{Kind: topology.Ring, Size: 2, Bandwidth: units.GBps(100)},
		topology.Dim{Kind: topology.Ring, Size: 8, Bandwidth: units.GBps(100)},
	)
	ar := func(id int, deps []int, spans ...et.SpanRef) et.Node {
		n := et.Node{ID: id, Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: mb8, Deps: deps}
		if len(spans) > 0 {
			n.Group = &et.GroupRef{Spans: spans}
		}
		return n
	}
	stride := func(s int) et.SpanRef { return et.SpanRef{Phys: 1, K: 2, Stride: s} }
	// Ranks 0-11 (positions 0-5) pair up on stride 3; ranks 12-15, where
	// stride 3 leaves the dimension, do not use it.
	pairs := []et.Node{ar(1, nil), ar(2, []int{1}, stride(3))}
	whole := []et.Node{ar(1, nil)}
	unused := perRank(16, func(r int) []et.Node {
		if r < 12 {
			return pairs
		}
		return whole
	})
	// Ranks 0-7 use only stride 3, which holds at their positions 0-3;
	// ranks 8-15 use stride 4, then 6, then 5, and rank 8, at position 4,
	// is the first to fail one: stride 6, first used by node 20.
	early := []et.Node{ar(1, nil, stride(3))}
	late := []et.Node{ar(10, nil, stride(4)), ar(20, []int{10}, stride(6)), ar(30, []int{20}, stride(5)), ar(40, []int{30}, stride(6))}
	failing := perRank(16, func(r int) []et.Node {
		if r < 8 {
			return early
		}
		return late
	})
	const want = "core: npu 8 node 20: collective: span 0 (K=2, stride=6) exceeds dim 1 size 8"
	for _, unfolded := range []bool{false, true} {
		sim, err := NewSimulator(testConfig(t, top))
		if err != nil {
			t.Fatal(err)
		}
		sim.unfolded = unfolded
		if _, err := sim.Run(unused); err != nil {
			t.Errorf("unfolded %v: layout unused where it fails: %v", unfolded, err)
		}
		if sim, err = NewSimulator(testConfig(t, top)); err != nil {
			t.Fatal(err)
		}
		sim.unfolded = unfolded
		if err := sim.Start(failing, 0); err == nil || err.Error() != want {
			t.Errorf("unfolded %v: Start error %v, want %q", unfolded, err, want)
		}
	}
}

// A folded run that deadlocks reports what the unfolded run reports, its
// pending-node count scaled to every rank: here ranks 0-1 wait in a
// whole-machine All-Reduce that ranks 2-3 never issue.
func TestFoldDeadlockCountsEveryRank(t *testing.T) {
	top := topology.MustNew(
		topology.Dim{Kind: topology.Ring, Size: 2, Bandwidth: units.GBps(100)},
		topology.Dim{Kind: topology.Ring, Size: 2, Bandwidth: units.GBps(100)},
	)
	waits := []et.Node{
		{ID: 1, Kind: et.KindCompute, FLOPs: 1e9},
		{ID: 2, Name: "ar", Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: 1 << 20, Deps: []int{1}},
		{ID: 3, Kind: et.KindCompute, FLOPs: 1e9, Deps: []int{2}},
	}
	skips := waits[:1]
	tr := &et.Trace{Name: "stuck", NumNPUs: 4}
	for r := 0; r < 4; r++ {
		nodes := waits
		if r >= 2 {
			nodes = skips
		}
		tr.Graphs = append(tr.Graphs, &et.Graph{NPU: r, Nodes: nodes})
	}
	const want = "core: simulation deadlocked with 4 nodes pending (unmatched P2P or incomplete collective rendezvous); first stuck: npu 0 node 2 (COMM_COLL ar, in flight)"
	for _, unfolded := range []bool{false, true} {
		sim, err := NewSimulator(testConfig(t, top))
		if err != nil {
			t.Fatal(err)
		}
		sim.unfolded = unfolded
		_, err = sim.Run(tr)
		if err == nil || err.Error() != want {
			t.Errorf("unfolded %v: error %v, want %q", unfolded, err, want)
		}
		if !unfolded && len(sim.npus) != 2 {
			t.Errorf("simulated %d ranks, want 2", len(sim.npus))
		}
	}
}
