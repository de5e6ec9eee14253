package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/compute"
	"repro/internal/core"
	"repro/internal/et"
	"repro/internal/etgen"
	"repro/internal/memory"
	"repro/internal/topology"
	"repro/internal/units"
)

func testFabric(t *testing.T, spec string, gbps ...float64) *topology.Topology {
	t.Helper()
	top, err := topology.ParseWithBandwidth(spec, gbps, 500*units.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func localMem() memory.System {
	return memory.System{Local: memory.LocalModel{Latency: units.Microsecond, Bandwidth: units.GBps(2039)}}
}

func allToAllJob(name string, npus int, size units.ByteSize) JobConfig {
	return JobConfig{Name: name, NPUs: npus, Trace: func(top *topology.Topology) (*et.Trace, error) {
		return etgen.SingleCollective(top, et.CollAllToAll, size), nil
	}}
}

func nJobs(n, npus int, size units.ByteSize) []JobConfig {
	jobs := make([]JobConfig, n)
	for i := range jobs {
		jobs[i] = allToAllJob(fmt.Sprintf("j%d", i), npus, size)
	}
	return jobs
}

func taperedConfig(jobs []JobConfig, placement Placement) Config {
	return Config{
		Fabric: topology.MustNew(
			topology.Dim{Kind: topology.Switch, Size: 8, Bandwidth: units.GBps(250), Latency: 500 * units.Nanosecond},
			topology.Dim{Kind: topology.OversubscribedSwitch(4), Size: 16, Bandwidth: units.GBps(250), Latency: 500 * units.Nanosecond},
		),
		Compute:   compute.A100(),
		Memory:    localMem(),
		Placement: placement,
		Jobs:      jobs,
	}
}

// --- planning ---

func TestLocalTopologyCarving(t *testing.T) {
	fabric := testFabric(t, "R(4)_FC(2)_SW(8,2)", 250, 100, 50)
	cases := []struct {
		npus int
		want string // "" = error expected
	}{
		{8, "R(4)_FC(2)"},
		{16, "R(4)_FC(2)_SW(2)"}, // switch slice drops the oversubscription
		{32, "R(4)_FC(2)_SW(4)"},
		{64, "R(4)_FC(2)_SW(8,2)"}, // the whole fabric keeps it
		{4, "R(4)"},
		{2, ""},   // would slice the ring
		{12, ""},  // 12/4 = 3 does not divide FC(2)
		{128, ""}, // bigger than the fabric
		{1, ""},   // degenerate
	}
	for _, c := range cases {
		local, err := localTopology(fabric, c.npus)
		if c.want == "" {
			if err == nil {
				t.Errorf("npus=%d: want error, got %s", c.npus, local)
			}
			continue
		}
		if err != nil {
			t.Errorf("npus=%d: %v", c.npus, err)
			continue
		}
		if got := local.String(); got != c.want {
			t.Errorf("npus=%d: local = %s, want %s", c.npus, got, c.want)
		}
	}
}

func TestPlanPacked(t *testing.T) {
	fabric := testFabric(t, "SW(8)_SW(16,4)", 250, 250)
	l, err := Plan(fabric, nJobs(4, 16, units.MB), Packed, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j, jp := range l.Jobs {
		if len(jp.Ranks) != 16 || jp.Ranks[0] != 16*j {
			t.Errorf("job %d ranks start at %d, want %d", j, jp.Ranks[0], 16*j)
		}
		// Leaf switches are private under packed placement; the spine is
		// shared by all four jobs.
		if want := []bool{false, true}; !reflect.DeepEqual(jp.SharedDims, want) {
			t.Errorf("job %d SharedDims = %v, want %v", j, jp.SharedDims, want)
		}
	}
}

// A flow on a dimension the job does not share is not counted: flowStarted
// returns (1, false), so no flowFinished is owed, and leaves the fabric
// state untouched. A flow on a shared dimension is counted until it
// finishes.
func TestFlowStartedTracksOnlySharedDims(t *testing.T) {
	fabric := testFabric(t, "SW(8)_SW(16,4)", 250, 250)
	l, err := Plan(fabric, nJobs(4, 16, units.MB), Packed, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := newFabricState(l)
	if f, tracked := st.flowStarted(0, 0); f != 1 || tracked {
		t.Errorf("flow on the private leaf dim: (%v, %v), want (1, false)", f, tracked)
	}
	for j := range st.inflight {
		for d, n := range st.inflight[j] {
			if n != 0 {
				t.Errorf("inflight[%d][%d] = %d after an untracked flow, want 0", j, d, n)
			}
		}
	}
	for d := range st.demand {
		for g, w := range st.demand[d] {
			if w != 0 {
				t.Errorf("demand[%d][%d] = %v after an untracked flow, want 0", d, g, w)
			}
		}
	}
	if _, tracked := st.flowStarted(0, 1); !tracked {
		t.Fatal("flow on the shared spine dim is not tracked")
	}
	if st.inflight[0][1] != 1 || st.demand[1][l.Jobs[0].group[1]] == 0 {
		t.Errorf("tracked spine flow: inflight %d, demand %v; want 1 and the job's weight", st.inflight[0][1], st.demand[1])
	}
	st.flowFinished(0, 1)
	if st.inflight[0][1] != 0 || st.demand[1][l.Jobs[0].group[1]] != 0 {
		t.Errorf("finished spine flow: inflight %d, demand %v; want 0 and 0", st.inflight[0][1], st.demand[1])
	}
}

func TestPlanSingleJobSharesNothing(t *testing.T) {
	fabric := testFabric(t, "SW(8)_SW(16,4)", 250, 250)
	l, err := Plan(fabric, nJobs(1, 32, units.MB), Packed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l.Jobs[0].SharedAny() {
		t.Errorf("lone job shares dims: %v", l.Jobs[0].SharedDims)
	}
}

func TestPlanStridedInterleavesSubLeafJobs(t *testing.T) {
	// 4-port jobs slice the 8-port leaves: strided placement interleaves
	// them inside leaves, so even the leaf level is shared.
	fabric := testFabric(t, "SW(8)_SW(4)", 250, 250)
	l, err := Plan(fabric, nJobs(2, 4, units.MB), Strided, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Jobs[0].SharedDims[0] {
		t.Error("strided sub-leaf jobs should share the leaf dim")
	}
	if got := l.Jobs[0].Ranks; !reflect.DeepEqual(got, []int{0, 2, 4, 6}) {
		t.Errorf("strided job 0 ranks = %v, want [0 2 4 6]", got)
	}
}

func TestPlanRandomDeterministicPerSeed(t *testing.T) {
	fabric := testFabric(t, "SW(8)_SW(16)", 250, 250)
	a, err := Plan(fabric, nJobs(4, 16, units.MB), Random, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Plan(fabric, nJobs(4, 16, units.MB), Random, 7)
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.Jobs {
		if !reflect.DeepEqual(a.Jobs[j].Ranks, b.Jobs[j].Ranks) {
			t.Fatalf("seeded random placement not reproducible: job %d %v vs %v", j, a.Jobs[j].Ranks, b.Jobs[j].Ranks)
		}
	}
}

func TestPlanRejectsOvercommit(t *testing.T) {
	fabric := testFabric(t, "SW(8)_SW(4)", 250, 250)
	if _, err := Plan(fabric, nJobs(3, 16, units.MB), Packed, 0); err == nil {
		t.Error("48 NPUs of jobs on a 32-NPU fabric accepted")
	}
}

func TestPlanStridedRejectsSplitBlocks(t *testing.T) {
	// The 2-NPU job slices the SW(4) leaves, so the allocation unit is a
	// single NPU; the 8-NPU job needs whole 4-NPU leaves, and strided
	// dealing hands it interleaved single NPUs that cannot reassemble
	// aligned leaf blocks.
	fabric := testFabric(t, "SW(4)_SW(8)", 250, 100)
	jobs := []JobConfig{allToAllJob("big", 8, units.MB), allToAllJob("small", 2, units.MB)}
	if _, err := Plan(fabric, jobs, Strided, 0); err == nil {
		t.Error("strided placement that splits a whole-dim block was accepted")
	}
	if _, err := Plan(fabric, jobs, Packed, 0); err != nil {
		t.Errorf("packed placement of the same jobs should be valid: %v", err)
	}
}

// --- simulation ---

// TestSingleJobMatchesIsolatedRun is the anchor property: a one-job
// cluster is byte-identical to the isolated core run of the same carved
// machine — same makespan, same breakdowns, same event count.
func TestSingleJobMatchesIsolatedRun(t *testing.T) {
	cfg := taperedConfig(nJobs(1, 16, 256*units.MB), Packed)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	local, err := localTopology(cfg.Fabric, 16)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := core.NewSimulator(core.Config{
		Topology: local, Compute: cfg.Compute, Memory: cfg.Memory,
	})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := cfg.Jobs[0].Trace(local)
	if err != nil {
		t.Fatal(err)
	}
	iso, err := sim.Run(trace)
	if err != nil {
		t.Fatal(err)
	}

	got := res.Jobs[0].Stats
	if got.Makespan != iso.Makespan {
		t.Errorf("cluster makespan %v != isolated %v", got.Makespan, iso.Makespan)
	}
	if got.Events != iso.Events {
		t.Errorf("cluster events %d != isolated %d", got.Events, iso.Events)
	}
	if !reflect.DeepEqual(got.PerNPU, iso.PerNPU) {
		t.Error("per-NPU breakdowns differ between cluster and isolated run")
	}
	if !reflect.DeepEqual(got.TrafficPerDim, iso.TrafficPerDim) {
		t.Error("traffic accounting differs between cluster and isolated run")
	}
}

// TestInterferenceMonotone checks the headline model property: per-job
// slowdown on an oversubscribed spine is non-decreasing in the co-located
// job count, and identical jobs finish near-identically (fair shares are
// sampled at flow start, so late starters may trail by a fraction of a
// percent — never more).
func TestInterferenceMonotone(t *testing.T) {
	var prev units.Time
	for _, n := range []int{1, 2, 4, 8} {
		res, err := Run(taperedConfig(nJobs(n, 16, 256*units.MB), Packed))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		var mean units.Time
		first := res.Jobs[0].Stats.Makespan
		for _, jr := range res.Jobs {
			mk := jr.Stats.Makespan
			mean += mk
			if diff := float64(mk-first) / float64(first); diff < -0.03 || diff > 0.03 {
				t.Errorf("n=%d: job %s makespan %v strays >3%% from %v (identical jobs should tie closely)", n, jr.Name, mk, first)
			}
		}
		mean /= units.Time(n)
		if mean < prev {
			t.Errorf("n=%d: mean makespan %v < %v at fewer jobs — slowdown not monotone", n, mean, prev)
		}
		prev = mean
	}
	// And the 8-job cell must actually be slower than isolated: the spine
	// demand (8 jobs x 2 ports x 250 GB/s) is 4x its 1 TB/s capacity.
	iso, err := Run(taperedConfig(nJobs(1, 16, 256*units.MB), Packed))
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(taperedConfig(nJobs(8, 16, 256*units.MB), Packed))
	if err != nil {
		t.Fatal(err)
	}
	if full.Jobs[0].Stats.Makespan <= iso.Jobs[0].Stats.Makespan {
		t.Errorf("8 co-located jobs show no slowdown: %v vs isolated %v",
			full.Jobs[0].Stats.Makespan, iso.Jobs[0].Stats.Makespan)
	}
}

// TestFlatSpineDoesNotInterfere: the same jobs on a fully-provisioned
// spine have enough capacity and must run exactly at isolated speed.
func TestFlatSpineDoesNotInterfere(t *testing.T) {
	flat := func(jobs []JobConfig) Config {
		cfg := taperedConfig(jobs, Packed)
		cfg.Fabric = topology.MustNew(
			topology.Dim{Kind: topology.Switch, Size: 8, Bandwidth: units.GBps(250), Latency: 500 * units.Nanosecond},
			topology.Dim{Kind: topology.Switch, Size: 16, Bandwidth: units.GBps(250), Latency: 500 * units.Nanosecond},
		)
		return cfg
	}
	iso, err := Run(flat(nJobs(1, 16, 256*units.MB)))
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(flat(nJobs(8, 16, 256*units.MB)))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := full.Jobs[0].Stats.Makespan, iso.Jobs[0].Stats.Makespan; got != want {
		t.Errorf("flat spine has capacity for all 8 jobs but makespan moved: %v vs %v", got, want)
	}
}

// TestDisjointInstanceGroupsDoNotContend: on a three-level fabric, packed
// 8-NPU jobs pair up under disjoint mid-level switches — every instance
// runs exactly at (not over) capacity, so the arbiter must return 1.0 and
// each job must run at isolated speed. Regression test for the
// dim-aggregate-vs-instance-capacity accounting bug.
func TestDisjointInstanceGroupsDoNotContend(t *testing.T) {
	mk := func(n int) Config {
		fabric := testFabric(t, "SW(4)_SW(4)_SW(8)", 250, 250, 250)
		return Config{
			Fabric: fabric, Compute: compute.A100(), Memory: localMem(),
			Placement: Packed, Jobs: nJobs(n, 8, 256*units.MB),
		}
	}
	l, err := Plan(mk(16).Fabric, nJobs(16, 8, 256*units.MB), Packed, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 16 jobs of SW(4)_SW(2): dim 2 is shared pairwise — eight disjoint
	// two-job components, not one sixteen-job pool.
	if got := l.groups[1]; got != 8 {
		t.Fatalf("dim-2 instance-sharing components = %d, want 8", got)
	}
	if g0, g1, g2 := l.Jobs[0].group[1], l.Jobs[1].group[1], l.Jobs[2].group[1]; g0 != g1 || g0 == g2 {
		t.Fatalf("jobs 0,1 should share a component and job 2 should not: %d %d %d", g0, g1, g2)
	}
	iso, err := Run(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(mk(16))
	if err != nil {
		t.Fatal(err)
	}
	for _, jr := range full.Jobs {
		if jr.Stats.Makespan != iso.Jobs[0].Stats.Makespan {
			t.Fatalf("job %s slowed to %v (isolated %v) although every instance is exactly at capacity",
				jr.Name, jr.Stats.Makespan, iso.Jobs[0].Stats.Makespan)
		}
	}
}

// TestRunDeterminism: identical configs give byte-identical results, for
// every placement policy.
func TestRunDeterminism(t *testing.T) {
	for _, p := range []Placement{Packed, Strided, Random} {
		a, err := Run(taperedConfig(nJobs(4, 16, 64*units.MB), p))
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		b, err := Run(taperedConfig(nJobs(4, 16, 64*units.MB), p))
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v placement: two identical runs differ", p)
		}
	}
}

// TestArrivalStaggering: a job released at time T measures its makespan
// from T, and an empty head start changes nothing about its duration.
func TestArrivalStaggering(t *testing.T) {
	jobs := nJobs(2, 16, 64*units.MB)
	jobs[1].Arrival = 10 * units.Millisecond
	res, err := Run(taperedConfig(jobs, Packed))
	if err != nil {
		t.Fatal(err)
	}
	j1 := res.Jobs[1]
	if j1.Arrival != 10*units.Millisecond {
		t.Fatalf("arrival = %v", j1.Arrival)
	}
	if j1.Stats.Makespan != j1.Finish-j1.Arrival {
		t.Errorf("makespan %v != finish-arrival %v", j1.Stats.Makespan, j1.Finish-j1.Arrival)
	}
	// Job 0's 64 MB all-to-all is long done by t=10ms, so job 1 runs alone
	// and must match the isolated time exactly.
	iso, err := Run(taperedConfig(nJobs(1, 16, 64*units.MB), Packed))
	if err != nil {
		t.Fatal(err)
	}
	if j1.Stats.Makespan != iso.Jobs[0].Stats.Makespan {
		t.Errorf("staggered job ran at %v, isolated %v", j1.Stats.Makespan, iso.Jobs[0].Stats.Makespan)
	}
}

// TestSharedPoolContention: co-scheduled jobs streaming from one remote
// pool slow each other down; a lone job does not.
func TestSharedPoolContention(t *testing.T) {
	pooled := func(n int) Config {
		cfg := taperedConfig(nil, Packed)
		cfg.Memory = memory.System{
			Local:   memory.LocalModel{Latency: units.Microsecond, Bandwidth: units.GBps(2039)},
			HasPool: true,
			Pool: memory.PoolConfig{
				Design: memory.Hierarchical, NumNodes: 16, GPUsPerNode: 8,
				NumOutSwitches: 4, NumRemoteGroups: 8,
				RemoteGroupBW: units.GBps(100), GPUSideOutFabricBW: units.GBps(100),
				InNodeFabricBW: units.GBps(256),
			},
		}
		for i := 0; i < n; i++ {
			cfg.Jobs = append(cfg.Jobs, JobConfig{Name: fmt.Sprintf("m%d", i), NPUs: 16,
				Trace: func(top *topology.Topology) (*et.Trace, error) {
					return etgen.MoETrace(top, etgen.MoE1T(false))
				}})
		}
		return cfg
	}
	iso, err := Run(pooled(1))
	if err != nil {
		t.Fatal(err)
	}
	quad, err := Run(pooled(4))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := quad.Jobs[0].Stats.Makespan, iso.Jobs[0].Stats.Makespan; got <= want {
		t.Errorf("4 jobs on one pool show no contention: %v vs isolated %v", got, want)
	}
	// Remote exposure, specifically, must have grown.
	isoMem := iso.Jobs[0].Stats.MeanBreakdown().ExposedRemoteMem
	quadMem := quad.Jobs[0].Stats.MeanBreakdown().ExposedRemoteMem
	if quadMem <= isoMem {
		t.Errorf("exposed remote-mem did not grow under pool sharing: %v vs %v", quadMem, isoMem)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(taperedConfig(nil, Packed)); err == nil {
		t.Error("no jobs accepted")
	}
	cfg := taperedConfig(nJobs(1, 16, units.MB), Packed)
	cfg.Jobs[0].Trace = nil
	if _, err := Run(cfg); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := ParsePlacement("diagonal"); err == nil {
		t.Error("unknown placement accepted")
	}
	for _, name := range Placements() {
		if _, err := ParsePlacement(name); err != nil {
			t.Errorf("listed placement %q does not parse: %v", name, err)
		}
	}
}
