package astrasim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// testSearchSpec is a cheap 4-topology x 2-bandwidth x 1-workload space
// (8 machine candidates) whose collectives simulate in microseconds.
func testSearchSpec() SearchSpec {
	return SearchSpec{
		Name:       "test-search",
		Topologies: []string{"R(8)", "SW(8)", "M(8)", "FC(8)"},
		Bandwidths: [][]float64{{100}, {400}},
		Workloads:  []WorkloadSpec{{Kind: "all_reduce", SizeBytes: 64 << 20}},
	}
}

func TestOptimizeHalvingMatchesExhaustive(t *testing.T) {
	spec := testSearchSpec()
	spec.Strategy = "exhaustive"
	ex, err := Optimize(spec, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Simulations != 8 || ex.Feasible != 8 {
		t.Fatalf("exhaustive ran %d/%d, want 8/8", ex.Simulations, ex.Feasible)
	}
	spec.Strategy = "halving"
	ha, err := Optimize(spec, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ha.Simulations >= ex.Simulations {
		t.Errorf("halving simulated %d cells, not fewer than exhaustive's %d", ha.Simulations, ex.Simulations)
	}
	if ha.Estimates != 8 {
		t.Errorf("halving estimated %d candidates, want the whole space (8)", ha.Estimates)
	}
	if ha.Best.Machine != ex.Best.Machine || ha.Best.Workload != ex.Best.Workload {
		t.Errorf("halving best %s/%s != exhaustive best %s/%s",
			ha.Best.Machine, ha.Best.Workload, ex.Best.Machine, ex.Best.Workload)
	}
	if ha.Best.Score != ex.Best.Score {
		t.Errorf("winner scores differ: %v vs %v", ha.Best.Score, ex.Best.Score)
	}
	if ha.Best.Score <= 0 {
		t.Errorf("non-positive best score %v", ha.Best.Score)
	}
}

// searchOutputs renders a result in all three output forms: JSON, CSV and
// the table without its wall-clock line.
func searchOutputs(t *testing.T, res *SearchResult) []byte {
	t.Helper()
	var out, tbl bytes.Buffer
	if err := res.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(&out); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteTable(&tbl); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.SplitAfter(tbl.String(), "\n") {
		if !strings.HasPrefix(line, "simulated ") {
			out.WriteString(line)
		}
	}
	return out.Bytes()
}

// TestOptimizeDeterministicAcrossWorkers mirrors the sweep engine's
// serial-parity guarantee: same seed + budget => byte-identical
// SearchResult at any -parallel worker count.
func TestOptimizeDeterministicAcrossWorkers(t *testing.T) {
	for _, strategy := range []string{"halving", "random"} {
		spec := testSearchSpec()
		spec.Strategy = strategy
		spec.Seed = 99
		spec.MaxSimulations = 2
		var want []byte
		for i, workers := range []int{1, 2, 8} {
			res, err := Optimize(spec, SearchOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			got := searchOutputs(t, res)
			if i == 0 {
				want = got
				continue
			}
			if !bytes.Equal(want, got) {
				t.Errorf("%s: workers=%d result differs from serial", strategy, workers)
			}
		}
	}
}

func TestOptimizePrunesInfeasibleCandidates(t *testing.T) {
	spec := testSearchSpec()
	// A 2-dimension topology in a space with 1-element bandwidth vectors:
	// both pairings are infeasible and must be pruned, not fatal.
	spec.Topologies = append(spec.Topologies, "R(4)_SW(2)")
	res, err := Optimize(spec, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Candidates != 10 || res.Feasible != 8 {
		t.Errorf("candidates=%d feasible=%d, want 10/8", res.Candidates, res.Feasible)
	}
	if len(res.Pruned) != 2 {
		t.Fatalf("%d pruned, want 2", len(res.Pruned))
	}
	for _, p := range res.Pruned {
		if !strings.Contains(p.Machine, "R(4)_SW(2)") || p.Reason == "" {
			t.Errorf("pruned entry %+v", p)
		}
	}

	// A bandwidth cost cap prunes the over-provisioned half of the space.
	spec = testSearchSpec()
	spec.MaxAggregateGBps = 200
	res, err = Optimize(spec, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible != 4 {
		t.Errorf("feasible=%d under 200 GB/s cap, want 4 (the 100 GB/s half)", res.Feasible)
	}
	for _, p := range res.Pruned {
		if !strings.Contains(p.Reason, "exceeds budget") {
			t.Errorf("pruned reason %q", p.Reason)
		}
	}
	if !strings.Contains(res.Best.Machine, "@ 100 GB/s") {
		t.Errorf("best %q should come from the feasible 100 GB/s half", res.Best.Machine)
	}
}

func TestOptimizeExplicitMachinesAndObjective(t *testing.T) {
	spec := SearchSpec{
		Strategy:  "exhaustive",
		Objective: "comm",
		Machines: []SweepMachine{
			{Name: "slow", Config: MachineConfig{Topology: "R(4)", BandwidthsGBps: []float64{50}}},
			{Name: "fast", Config: MachineConfig{Topology: "R(4)", BandwidthsGBps: []float64{500}}},
		},
		Workloads: []WorkloadSpec{{Kind: "all_reduce", SizeBytes: 64 << 20}},
	}
	res, err := Optimize(spec, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective != "comm" {
		t.Errorf("objective = %q", res.Objective)
	}
	if res.Best.Machine != "fast" {
		t.Errorf("best machine = %q, want fast", res.Best.Machine)
	}
}

// TestOptimizeObjectives: in both modes the objective picks what a
// candidate scores — the makespan, or the exposed communication (in
// cluster mode, its mean over the jobs) — as the direct run reports it.
func TestOptimizeObjectives(t *testing.T) {
	w := WorkloadSpec{Kind: "pipeline", Stages: 2, MicroBatches: 2, FlopsPerStage: 1e11,
		ActivationBytes: 1 << 20, GradBytes: 8 << 20}
	machine := MachineConfig{Topology: "R(4)_SW(2)", BandwidthsGBps: []float64{100, 50}}
	jobs := []ClusterJobSpec{{NPUs: 4, Count: 2, Workload: w}}
	m, err := NewMachine(machine)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := w.Workload()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := RunCluster(ClusterSpec{Fabric: machine, Placement: "strided", Jobs: jobs}, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var clusterComm time.Duration
	for _, j := range cl.Jobs {
		clusterComm += j.Report.ExposedComm
	}
	clusterComm /= time.Duration(len(cl.Jobs))
	if rep.Makespan == rep.ExposedComm || cl.Makespan == clusterComm {
		t.Fatal("the workload does not tell the objectives apart")
	}
	for _, c := range []struct {
		cluster   bool
		objective string
		want      time.Duration
	}{
		{false, "", rep.Makespan}, {false, "comm", rep.ExposedComm},
		{true, "makespan", cl.Makespan}, {true, "exposed_comm", clusterComm},
	} {
		spec := SearchSpec{Strategy: "exhaustive", Objective: c.objective, Machines: []SweepMachine{{Config: machine}}}
		if c.cluster {
			spec.Cluster = &ClusterSearchSpec{Jobs: jobs, Placements: []string{"strided"}}
		} else {
			spec.Workloads = []WorkloadSpec{w}
		}
		res, err := Optimize(spec, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Best.Score != c.want {
			t.Errorf("cluster=%v objective %q: score %v, want %v", c.cluster, c.objective, res.Best.Score, c.want)
		}
	}
}

// TestOptimizeMultiWorkloadPromotesWholeMachines guards the default
// budget with several workloads: the screening estimate is machine-level,
// so every workload of a promoted machine must reach simulation — the
// optimum may be any of them, and cutting the block by candidate id would
// deterministically miss it.
func TestOptimizeMultiWorkloadPromotesWholeMachines(t *testing.T) {
	spec := SearchSpec{
		Machines: []SweepMachine{
			{Name: "slow", Config: MachineConfig{Topology: "R(4)", BandwidthsGBps: []float64{50}}},
			{Name: "fast", Config: MachineConfig{Topology: "R(4)", BandwidthsGBps: []float64{400}}},
		},
		Workloads: []WorkloadSpec{
			{Kind: "all_reduce", SizeBytes: 256 << 20},
			{Kind: "all_reduce", SizeBytes: 1 << 20}, // the true optimum
		},
	}
	spec.Strategy = "exhaustive"
	ex, err := Optimize(spec, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spec.Strategy = "halving"
	ha, err := Optimize(spec, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// One machine promoted => both its workloads simulated.
	if ha.Simulations != 2 {
		t.Errorf("halving ran %d simulations, want 2 (one whole machine)", ha.Simulations)
	}
	if ha.Best != ex.Best {
		t.Errorf("halving best %+v != exhaustive best %+v", ha.Best, ex.Best)
	}
	if ex.Best.Machine != "fast" || !strings.Contains(ex.Best.Workload, "1048576") {
		t.Errorf("unexpected exhaustive optimum %+v", ex.Best)
	}

	// An explicit population keeps the random strategy's sample-derived
	// budget even with multiple workloads: 2 sampled, ceil(2/4)=1
	// simulated — the whole-machine default must not override it.
	spec.Strategy = "random"
	spec.Seed = 3
	spec.Population = 2
	rnd, err := Optimize(spec, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rnd.Estimates != 2 || rnd.Simulations != 1 {
		t.Errorf("random population 2: %d estimates / %d simulations, want 2 / 1",
			rnd.Estimates, rnd.Simulations)
	}

	// Halving ignores Population, so a stray Population value must not
	// disable the whole-machine default budget.
	spec.Strategy = "halving"
	h2, err := Optimize(spec, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if h2.Simulations != 2 || h2.Best != ex.Best {
		t.Errorf("halving with stray population: %d simulations, best %+v; want 2, %+v",
			h2.Simulations, h2.Best, ex.Best)
	}
}

// TestOptimizeProgressMonotonic checks the rung-spanning progress
// adapter: the halving search runs two sweeps (estimate, simulate), but
// the reported counters must never reset.
func TestOptimizeProgressMonotonic(t *testing.T) {
	spec := testSearchSpec()
	lastDone, lastTotal, calls := -1, -1, 0
	_, err := Optimize(spec, SearchOptions{Workers: 1, Progress: func(done, total int) {
		calls++
		if done < lastDone {
			t.Errorf("progress done reset: %d after %d", done, lastDone)
		}
		if total < lastTotal {
			t.Errorf("progress total shrank: %d after %d", total, lastTotal)
		}
		lastDone, lastTotal = done, total
	}})
	if err != nil {
		t.Fatal(err)
	}
	// 8 estimates + 2 simulations, reported cumulatively.
	if calls == 0 || lastDone != lastTotal || lastDone != 10 {
		t.Errorf("final progress %d/%d after %d calls, want 10/10", lastDone, lastTotal, calls)
	}
}

// An eta near the largest int is a valid promotion ratio: it promotes
// ceil(feasible/eta) = 1 machine. It used to wrap the random strategy's
// sample size and budget (a makeslice panic) and the whole-machine rounding
// of a multi-workload search, which then promoted one of a machine's two
// candidates.
func TestOptimizeHugeEta(t *testing.T) {
	base := `"topologies": ["R(4)", "SW(8)", "FC(4)"], "bandwidths": [[100]], "eta": 9223372036854775807,
	  "workloads": [{"kind": "all_reduce", "size_bytes": 1048576}`
	cases := []struct {
		name, doc  string
		ests, sims int
	}{
		{"random budget", `{"strategy": "random", "max_simulations": 2, ` + base + `]}`, 3, 2},
		{"random population", `{"strategy": "random", "population": 3, ` + base + `]}`, 3, 1},
		{"two workloads", `{"strategy": "halving", ` + base + `, {"kind": "all_to_all", "size_bytes": 1048576}]}`, 6, 2},
	}
	for _, c := range cases {
		spec, err := LoadSearchSpec(strings.NewReader(c.doc))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res, err := Optimize(spec, SearchOptions{})
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if res.Estimates != c.ests || res.Simulations != c.sims {
			t.Errorf("%s: %d estimates / %d simulations, want %d / %d", c.name, res.Estimates, res.Simulations, c.ests, c.sims)
		}
		if sims := res.History[1].Evals; c.name == "two workloads" && len(sims) == 2 {
			if sims[0].Machine != sims[1].Machine {
				t.Errorf("two workloads: promoted %s and %s, want both workloads of one machine", sims[0].Machine, sims[1].Machine)
			}
		}
	}
}

func TestLoadSearchSpec(t *testing.T) {
	doc := `{
	  "name": "fabric-hunt",
	  "strategy": "halving",
	  "topologies": ["R(8)", "SW(8)"],
	  "bandwidths": [[100]],
	  "workloads": [{"kind": "all_reduce", "size_bytes": 1048576}]
	}`
	spec, err := LoadSearchSpec(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(spec, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Candidates != 2 {
		t.Errorf("candidates = %d, want 2", res.Candidates)
	}
	if _, err := LoadSearchSpec(strings.NewReader(`{"topologiez": []}`)); err == nil {
		t.Error("unknown field accepted")
	}
}

// testClusterSearchSpec is a cheap cluster-mode space: two 32-NPU fabrics
// x two placements, hosting two 8-NPU all-to-all jobs.
func testClusterSearchSpec() SearchSpec {
	return SearchSpec{
		Name: "cluster-test",
		Machines: []SweepMachine{
			{Name: "slow", Config: MachineConfig{Topology: "R(4)_SW(8)", BandwidthsGBps: []float64{100, 25}}},
			{Name: "fast", Config: MachineConfig{Topology: "R(4)_SW(8)", BandwidthsGBps: []float64{400, 200}}},
		},
		Cluster: &ClusterSearchSpec{
			Jobs:       []ClusterJobSpec{{NPUs: 8, Count: 2, Workload: WorkloadSpec{Kind: "all_to_all", SizeBytes: 1 << 20}}},
			Placements: []string{"strided", "packed"},
		},
	}
}

// specDefect is one single-defect edit of a valid search spec and the
// exact error it must produce.
type specDefect struct {
	name string
	edit func(*SearchSpec)
	want string
}

// TestOptimizeSpecErrors pins the exact error of every single-defect spec
// in both modes: the one optimizer loop must reject each defect the way
// its mode always has.
func TestOptimizeSpecErrors(t *testing.T) {
	// Defects both modes share; name is the spec's name and pruned the
	// size of its space.
	shared := func(name string, pruned int) []specDefect {
		return []specDefect{
			{"unknown objective", func(s *SearchSpec) { s.Objective = "dollars" },
				`astrasim: unknown objective "dollars" (want makespan or comm)`},
			{"unknown proxy op", func(s *SearchSpec) { s.ProxyOp = "broadcast" },
				`astrasim: proxy op: astrasim: unknown collective "broadcast"`},
			{"unknown strategy", func(s *SearchSpec) { s.Strategy = "annealing" },
				`search: unknown strategy "annealing" (registered: exhaustive, grid, halving, random, sha, successive-halving, sweep)`},
			{"no machines", func(s *SearchSpec) { s.Machines, s.Topologies = nil, nil },
				fmt.Sprintf("astrasim: search %q has no machine candidates", name)},
			{"every candidate pruned", func(s *SearchSpec) { s.MaxAggregateGBps = 1 },
				fmt.Sprintf("search %s: no feasible candidates (%d pruned)", name, pruned)},
		}
	}
	modes := []struct {
		mode    string
		spec    func() SearchSpec
		defects []specDefect
	}{
		{"single", testSearchSpec, append(shared("test-search", 8),
			specDefect{"no workloads", func(s *SearchSpec) { s.Workloads = nil },
				`astrasim: search "test-search" has no workloads`},
			specDefect{"bad workload kind", func(s *SearchSpec) { s.Workloads = []WorkloadSpec{{Kind: "nope"}} },
				`astrasim: search test-search: workload 0: astrasim: unknown workload kind "nope"`},
			specDefect{"bad workload kind, unnamed", func(s *SearchSpec) { s.Name, s.Workloads = "", []WorkloadSpec{{Kind: "nope"}} },
				`astrasim: search search: workload 0: astrasim: unknown workload kind "nope"`},
			specDefect{"every candidate pruned, unnamed", func(s *SearchSpec) { s.Name, s.MaxAggregateGBps = "", 1 },
				`search search: no feasible candidates (8 pruned)`},
			specDefect{"negative proxy size", func(s *SearchSpec) { s.ProxySizeBytes = -1 << 30 },
				`sweep test-search/estimate: cell [R(8) @ 100 GB/s / all_reduce(67108864)]: collective: non-positive size -1073741824`},
		)},
		{"cluster", testClusterSearchSpec, append(shared("cluster-test", 4),
			specDefect{"no jobs", func(s *SearchSpec) { s.Cluster.Jobs = nil },
				`astrasim: cluster search "cluster-test" has no jobs`},
			specDefect{"unknown placement", func(s *SearchSpec) { s.Cluster.Placements = []string{"packed", "diagonal"} },
				`cluster: unknown placement "diagonal" (want packed, strided, random)`},
			specDefect{"negative count", func(s *SearchSpec) { s.Cluster.Jobs[0].Count = -1 },
				`astrasim: cluster job 0: negative count`},
			specDefect{"bad workload kind", func(s *SearchSpec) { s.Cluster.Jobs[0].Workload.Kind = "nope" },
				`astrasim: cluster job 0: astrasim: unknown workload kind "nope"`},
			specDefect{"every candidate pruned, unnamed", func(s *SearchSpec) { s.Name, s.MaxAggregateGBps = "", 1 },
				`search cluster-search: no feasible candidates (4 pruned)`},
			specDefect{"negative proxy size", func(s *SearchSpec) { s.ProxySizeBytes = -1 << 30 },
				`sweep cluster-test/estimate: cell [slow / strided]: collective: non-positive size -1073741824`},
		)},
	}
	for _, m := range modes {
		for _, d := range m.defects {
			spec := m.spec()
			d.edit(&spec)
			if _, err := Optimize(spec, SearchOptions{}); err == nil || err.Error() != d.want {
				t.Errorf("%s mode, %s: error %v, want %q", m.mode, d.name, err, d.want)
			}
		}
	}
}

func TestSearchResultWriters(t *testing.T) {
	spec := testSearchSpec()
	res, err := Optimize(spec, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var tbl bytes.Buffer
	if err := res.WriteTable(&tbl); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"strategy=halving", "rung 0: estimate", "rung 1: simulate", "best:"} {
		if !strings.Contains(tbl.String(), want) {
			t.Errorf("table missing %q:\n%s", want, tbl.String())
		}
	}
	var csv bytes.Buffer
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "generation,fidelity,machine,workload,placement,score_us,promoted\n") {
		t.Errorf("CSV header: %q", strings.SplitN(csv.String(), "\n", 2)[0])
	}
}

func TestRegisteredBlocksExported(t *testing.T) {
	blocks := RegisteredBlocks()
	have := strings.Join(blocks, " ")
	for _, want := range []string{"r", "ring", "sw", "switch", "fc", "m", "mesh", "t2d", "torus"} {
		found := false
		for _, b := range blocks {
			if b == want {
				found = true
			}
		}
		if !found {
			t.Errorf("RegisteredBlocks missing %q (have: %s)", want, have)
		}
	}
	for i := 1; i < len(blocks); i++ {
		if blocks[i-1] >= blocks[i] {
			t.Errorf("blocks not sorted: %v", blocks)
		}
	}
}
