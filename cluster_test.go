package astrasim

import (
	"bytes"
	"strings"
	"testing"
)

func taperedClusterSpec(n int, workload WorkloadSpec) ClusterSpec {
	return ClusterSpec{
		Name:   "test",
		Fabric: MachineConfig{Topology: "SW(8)_SW(16,4)", BandwidthsGBps: []float64{250, 250}},
		Jobs:   []ClusterJobSpec{{Name: "job", NPUs: 16, Count: n, Workload: workload}},
	}
}

// TestClusterSingleJobMatchesIsolated is the facade-level anchor: a
// one-job ClusterSpec reproduces the isolated Machine.Run of the same
// carved-out machine byte for byte.
func TestClusterSingleJobMatchesIsolated(t *testing.T) {
	res, err := RunCluster(taperedClusterSpec(1, WorkloadSpec{Kind: "dlrm"}), ClusterOptions{Slowdowns: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Jobs[0].Local, "SW(8)_SW(2)"; got != want {
		t.Fatalf("carved topology = %s, want %s", got, want)
	}
	// The isolated machine: the job's slice of the fabric, at the fabric's
	// per-dimension bandwidths (the slice drops the spine oversubscription).
	m, err := NewMachine(MachineConfig{Topology: "SW(8)_SW(2)", BandwidthsGBps: []float64{250, 250}})
	if err != nil {
		t.Fatal(err)
	}
	iso, err := m.Run(DLRM())
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Jobs[0].Report
	if rep.Makespan != iso.Makespan {
		t.Errorf("cluster makespan %v != isolated %v", rep.Makespan, iso.Makespan)
	}
	// A job that shares nothing with another gets no arbitration hooks,
	// so it folds exactly as the isolated run does.
	if rep.Events != iso.Events || rep.SimulatedRanks != iso.SimulatedRanks {
		t.Errorf("cluster events %d on %d simulated ranks != isolated %d on %d",
			rep.Events, rep.SimulatedRanks, iso.Events, iso.SimulatedRanks)
	}
	if rep.Compute != iso.Compute || rep.ExposedComm != iso.ExposedComm || rep.Idle != iso.Idle {
		t.Errorf("breakdowns differ: cluster %+v vs isolated %+v", rep, iso)
	}
	if res.Jobs[0].Slowdown != 1.0 {
		t.Errorf("single job slowdown = %v, want exactly 1.0", res.Jobs[0].Slowdown)
	}
}

// TestClusterSlowdownMonotone is the acceptance property at the facade:
// non-decreasing mean slowdown on the oversubscribed fabric as jobs pile
// on, and a strict increase once demand exceeds spine capacity.
func TestClusterSlowdownMonotone(t *testing.T) {
	wl := WorkloadSpec{Kind: "all_to_all", SizeBytes: 256 << 20}
	prev := 0.0
	var last float64
	for _, n := range []int{1, 2, 4, 8} {
		res, err := RunCluster(taperedClusterSpec(n, wl), ClusterOptions{Slowdowns: true})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		mean := 0.0
		for _, j := range res.Jobs {
			mean += j.Slowdown
		}
		mean /= float64(n)
		if mean < prev {
			t.Errorf("n=%d: mean slowdown %.4f < %.4f at fewer jobs", n, mean, prev)
		}
		prev, last = mean, mean
	}
	if last <= 1.01 {
		t.Errorf("8 jobs on a 4:1 spine show no interference (mean slowdown %.4f)", last)
	}
}

// TestClusterDeterminism: identical specs produce byte-identical JSON,
// including under seeded random placement.
func TestClusterDeterminism(t *testing.T) {
	spec := taperedClusterSpec(4, WorkloadSpec{Kind: "all_to_all", SizeBytes: 64 << 20})
	spec.Placement = "random"
	spec.Seed = 42
	var a, b bytes.Buffer
	ra, err := RunCluster(spec, ClusterOptions{Slowdowns: true})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := RunCluster(spec, ClusterOptions{Slowdowns: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := ra.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := rb.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two identical cluster runs produced different JSON")
	}
}

func TestLoadClusterSpec(t *testing.T) {
	doc := `{
		"name": "tenants",
		"fabric": {"Topology": "SW(8)_SW(16,4)", "BandwidthsGBps": [250, 250]},
		"placement": "packed",
		"jobs": [
			{"name": "gpt", "npus": 16, "count": 2, "workload": {"kind": "gpt3"}},
			{"name": "ads", "npus": 32, "arrival_us": 100, "workload": {"kind": "dlrm"}}
		]
	}`
	spec, err := LoadClusterSpec(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Jobs) != 2 || spec.Jobs[0].Count != 2 || spec.Jobs[1].ArrivalUs != 100 {
		t.Errorf("spec = %+v", spec)
	}
	// Unknown fields fail loudly.
	if _, err := LoadClusterSpec(strings.NewReader(`{"fabrik": {}}`)); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestRunClusterErrors(t *testing.T) {
	bad := taperedClusterSpec(1, WorkloadSpec{Kind: "dlrm"})
	bad.Jobs[0].NPUs = 24 // 24 = 8*3 does not slice SW(16,4) evenly
	if _, err := RunCluster(bad, ClusterOptions{}); err == nil {
		t.Error("untileable job size accepted")
	}
	bad = taperedClusterSpec(1, WorkloadSpec{Kind: "nope"})
	if _, err := RunCluster(bad, ClusterOptions{}); err == nil {
		t.Error("unknown workload kind accepted")
	}
	bad = taperedClusterSpec(1, WorkloadSpec{Kind: "dlrm"})
	bad.Placement = "diagonal"
	if _, err := RunCluster(bad, ClusterOptions{}); err == nil {
		t.Error("unknown placement accepted")
	}
	bad = taperedClusterSpec(1, WorkloadSpec{Kind: "dlrm"})
	bad.Jobs = nil
	if _, err := RunCluster(bad, ClusterOptions{}); err == nil {
		t.Error("jobless cluster accepted")
	}
}

// TestClusterWriters smoke-tests the three output forms.
func TestClusterWriters(t *testing.T) {
	res, err := RunCluster(taperedClusterSpec(2, WorkloadSpec{Kind: "all_to_all", SizeBytes: 16 << 20}), ClusterOptions{Slowdowns: true})
	if err != nil {
		t.Fatal(err)
	}
	var tbl, csv, js bytes.Buffer
	if err := res.WriteTable(&tbl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "Slowdown") || !strings.Contains(tbl.String(), "job#0") {
		t.Errorf("table missing expected content:\n%s", tbl.String())
	}
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "job,workload,npus,local,first_rank,arrival_us,finish_us,makespan_us") {
		t.Errorf("CSV header: %q", strings.SplitN(csv.String(), "\n", 2)[0])
	}
	if err := res.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if js.Len() == 0 {
		t.Error("empty JSON output")
	}
}

// TestClusterSearchPlacementAxis: cluster-mode search over (fabric,
// placement) candidates is deterministic across worker counts and finds
// the uncontended flat fabric.
func TestClusterSearchPlacementAxis(t *testing.T) {
	spec := SearchSpec{
		Name:       "cluster-axis",
		Strategy:   "exhaustive",
		Topologies: []string{"SW(8)_SW(16)", "SW(8)_SW(16,4)"},
		Bandwidths: [][]float64{{250, 250}},
		Cluster: &ClusterSearchSpec{
			Jobs:       []ClusterJobSpec{{Name: "a2a", NPUs: 16, Count: 4, Workload: WorkloadSpec{Kind: "all_to_all", SizeBytes: 64 << 20}}},
			Placements: []string{"packed", "strided"},
		},
	}
	res1, err := Optimize(spec, SearchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res4, err := Optimize(spec, SearchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := searchOutputs(t, res1), searchOutputs(t, res4); !bytes.Equal(a, b) {
		t.Errorf("cluster search output differs across worker counts:\n%s\nvs\n%s", a, b)
	}
	if res1.Best.Machine != "SW(8)_SW(16) @ 250,250 GB/s" {
		t.Errorf("best fabric = %q, want the uncontended flat spine", res1.Best.Machine)
	}
	if res1.Best.Placement == "" {
		t.Error("cluster-mode best has no placement")
	}
	if res1.Candidates != 4 {
		t.Errorf("candidates = %d, want 2 fabrics x 2 placements", res1.Candidates)
	}
}

// TestClusterSearchHalvingPromotesWholeFabrics: the screening estimate is
// fabric-level, so every placement of a fabric ties, and the default
// budget must promote whole fabrics — both placements of the fast one —
// rather than cut the tie by candidate id.
func TestClusterSearchHalvingPromotesWholeFabrics(t *testing.T) {
	spec := testClusterSearchSpec()
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
	if ha.Estimates != 4 || ha.Simulations != 2 {
		t.Fatalf("halving ran %d estimates / %d simulations, want 4 / 2 (one whole fabric)",
			ha.Estimates, ha.Simulations)
	}
	sims := ha.History[1].Evals
	for i, want := range []string{"strided", "packed"} {
		if sims[i].Machine != "fast" || sims[i].Placement != want || sims[i].Workload != "cluster(2 jobs)" {
			t.Errorf("simulated candidate %d = %+v, want fast / cluster(2 jobs) / %s", i, sims[i], want)
		}
	}
	if ha.Best != ex.Best {
		t.Errorf("halving best %+v != exhaustive best %+v", ha.Best, ex.Best)
	}
}

// TestClusterSearchPrunedRows: a (fabric, placement) pair the jobs cannot
// be laid out on is pruned, and its row names the placement but no
// workload — a pruned pair never ran the cluster's jobs.
func TestClusterSearchPrunedRows(t *testing.T) {
	spec := testClusterSearchSpec()
	// Strided placement splits the 8-NPU jobs' whole-switch blocks on this
	// tapered fabric; packed keeps them whole.
	spec.Machines = append(spec.Machines, SweepMachine{
		Name:   "tapered",
		Config: MachineConfig{Topology: "SW(8)_SW(4,4)", BandwidthsGBps: []float64{200, 100}},
	})
	spec.Cluster.Jobs = append(spec.Cluster.Jobs, ClusterJobSpec{
		NPUs: 4, Workload: WorkloadSpec{Kind: "all_reduce", SizeBytes: 1 << 20},
	})
	spec.Strategy = "exhaustive"
	res, err := Optimize(spec, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pruned) != 1 {
		t.Fatalf("pruned %+v, want the tapered fabric's strided pair", res.Pruned)
	}
	p := res.Pruned[0]
	if p.Machine != "tapered" || p.Placement != "strided" || p.Workload != "" ||
		!strings.Contains(p.Reason, "under strided placement") {
		t.Errorf("pruned row %+v, want machine tapered, placement strided, no workload", p)
	}
	if res.Feasible != 5 || res.Simulations != 5 {
		t.Errorf("feasible %d, simulations %d; want 5 and 5", res.Feasible, res.Simulations)
	}
}
