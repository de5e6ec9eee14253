package experiments

import (
	"testing"

	"repro/internal/units"
)

func TestFabricSystemsShape(t *testing.T) {
	systems := FabricSystems()
	if len(systems) != 6 {
		t.Fatalf("%d fabrics, want 6", len(systems))
	}
	for _, s := range systems {
		if s.Top.NumNPUs() != 512 {
			t.Errorf("%s has %d NPUs, want 512", s.Name, s.Top.NumNPUs())
		}
	}
	// Equal configured bandwidth, but the tapered fabrics deliver less.
	flat, _ := FindSystem(systems, "SW-Flat")
	t4, _ := FindSystem(systems, "SW-Taper4")
	if flat.Top.AggregateBandwidth() != units.GBps(500) {
		t.Errorf("SW-Flat BW/NPU = %v, want 500GB/s", flat.Top.AggregateBandwidth())
	}
	if t4.Top.AggregateBandwidth() != units.GBps(250+250.0/4) {
		t.Errorf("SW-Taper4 BW/NPU = %v, want 312.5GB/s", t4.Top.AggregateBandwidth())
	}
	checkMachines(t, systems, []string{
		"RingStack R(16)_R(32) @ 250/250",
		"Torus-2D T2D(16,32) @ 500",
		"MeshStack M(16)_M(32) @ 250/250",
		"SW-Flat SW(16)_SW(32) @ 250/250",
		"SW-Taper2 SW(16)_SW(32,2) @ 250/250",
		"SW-Taper4 SW(16)_SW(32,4) @ 250/250",
	})
}

func TestFabricEstimatesOrdering(t *testing.T) {
	est := FabricEstimates()
	// Oversubscription can only slow the collective, monotonically in o.
	if !(est["SW-Flat"] < est["SW-Taper2"] && est["SW-Taper2"] < est["SW-Taper4"]) {
		t.Errorf("taper ordering violated: flat %v, 2:1 %v, 4:1 %v",
			est["SW-Flat"], est["SW-Taper2"], est["SW-Taper4"])
	}
	for name, v := range est {
		if v <= 0 {
			t.Errorf("%s estimate = %v", name, v)
		}
	}
}

func TestFabricsGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("fabric grid simulates GPT-3 on six 512-NPU systems")
	}
	res, err := Fabrics(Options{Reduced: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 12 {
		t.Fatalf("%d cells, want 6 systems x 2 workloads", len(res.Cells))
	}
	flat, err := res.Cell("SW-Flat", WLGPT3)
	if err != nil {
		t.Fatal(err)
	}
	t4, err := res.Cell("SW-Taper4", WLGPT3)
	if err != nil {
		t.Fatal(err)
	}
	// Oversubscribing the leaf switches must cost GPT-3 communication time
	// and must not change compute time.
	if t4.ExposedComm <= flat.ExposedComm {
		t.Errorf("SW-Taper4 exposed comm %v should exceed SW-Flat %v", t4.ExposedComm, flat.ExposedComm)
	}
	if t4.Compute != flat.Compute {
		t.Errorf("compute differs across fabrics: %v vs %v", t4.Compute, flat.Compute)
	}
	// Taper is monotone on GPT-3 (its DP All-Reduces stress the leaf
	// switches), and on the pipelined 1 GB All-Reduce oversubscription can
	// never help — though it may hide entirely under the dim-1 bottleneck.
	t2, err := res.Cell("SW-Taper2", WLGPT3)
	if err != nil {
		t.Fatal(err)
	}
	if !(flat.Total < t2.Total && t2.Total < t4.Total) {
		t.Errorf("GPT-3 taper ordering violated: flat %v, 2:1 %v, 4:1 %v", flat.Total, t2.Total, t4.Total)
	}
	arFlat, _ := res.Cell("SW-Flat", WLAllReduce)
	arT4, _ := res.Cell("SW-Taper4", WLAllReduce)
	if arT4.Total < arFlat.Total {
		t.Errorf("All-Reduce: tapered fabric (%v) beat flat (%v)", arT4.Total, arFlat.Total)
	}
	for _, c := range res.Cells {
		if c.Total <= 0 {
			t.Errorf("%s/%s: non-positive total %v", c.System, c.Workload, c.Total)
		}
	}
}
