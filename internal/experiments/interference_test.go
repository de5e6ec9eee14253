package experiments

import (
	"reflect"
	"testing"

	"repro/internal/sweep"
)

func TestInterferenceFabricShapes(t *testing.T) {
	for _, s := range interferenceFabrics() {
		if s.Top.NumNPUs() != 128 {
			t.Errorf("%s has %d NPUs, want 128", s.Name, s.Top.NumNPUs())
		}
	}
	checkMachines(t, interferenceFabrics(), []string{
		"SW-Flat SW(8)_SW(16) @ 250/250",
		"SW-Taper4 SW(8)_SW(16,4) @ 250/250",
		"Torus-Pods T2D(4,4)_SW(8,4) @ 500/250",
	})
	// The resilience study runs on the interference study's flat and
	// torus fabrics.
	checkMachines(t, resilienceFabrics(), []string{
		"SW-Flat SW(8)_SW(16) @ 250/250",
		"Torus-Pods T2D(4,4)_SW(8,4) @ 500/250",
	})
}

// TestInterferenceShort is the -short smoke: one contended cell must show
// interference, anchored at exactly 1.0 for a lone job.
func TestInterferenceShort(t *testing.T) {
	systems := interferenceFabrics()
	taper, err := FindSystem(systems, "SW-Taper4")
	if err != nil {
		t.Fatal(err)
	}
	cell, err := runInterferenceCell(taper, WLDLRM, 8, Options{Reduced: true})
	if err != nil {
		t.Fatal(err)
	}
	if cell.MeanSlowdown <= 1.0 {
		t.Errorf("8 DLRM jobs on the 4:1 spine: slowdown %.4f, want > 1.0", cell.MeanSlowdown)
	}
	solo, err := runInterferenceCell(taper, WLDLRM, 1, Options{Reduced: true})
	if err != nil {
		t.Fatal(err)
	}
	if solo.MeanSlowdown != 1.0 {
		t.Errorf("lone job slowdown = %v, want exactly 1.0", solo.MeanSlowdown)
	}
}

func TestInterferenceGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full interference grid co-simulates up to 8 jobs per cell; TestInterferenceShort covers the smoke")
	}
	res, err := Interference(Options{Reduced: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * 3 * len(InterferenceJobCounts()); len(res.Cells) != want {
		t.Fatalf("%d cells, want %d", len(res.Cells), want)
	}

	for _, c := range res.Cells {
		if c.Isolated <= 0 || c.MeanMakespan <= 0 {
			t.Errorf("%s/%s x%d: non-positive times %v/%v", c.Fabric, c.Workload, c.Jobs, c.Isolated, c.MeanMakespan)
		}
		if c.Jobs == 1 && c.MeanSlowdown != 1.0 {
			t.Errorf("%s/%s: single job slowdown = %v, want exactly 1.0 (isolated anchor)", c.Fabric, c.Workload, c.MeanSlowdown)
		}
		if c.MaxSlowdown < c.MeanSlowdown {
			t.Errorf("%s/%s x%d: max %v < mean %v", c.Fabric, c.Workload, c.Jobs, c.MaxSlowdown, c.MeanSlowdown)
		}
	}

	// The acceptance property: per-job slowdown is monotonically
	// non-decreasing in the co-located job count, on every fabric and
	// workload.
	for _, sys := range []string{"SW-Flat", "SW-Taper4", "Torus-Pods"} {
		for _, wl := range InterferenceWorkloads() {
			prev := 0.0
			for _, n := range InterferenceJobCounts() {
				c, err := res.Cell(sys, wl, n)
				if err != nil {
					t.Fatal(err)
				}
				if c.MeanSlowdown < prev {
					t.Errorf("%s/%s: slowdown drops from %.4f to %.4f at %d jobs", sys, wl, prev, c.MeanSlowdown, n)
				}
				prev = c.MeanSlowdown
			}
		}
	}

	// Mechanism separation: the pool-bound MoE jobs contend even on the
	// network-isolated torus pods, and strongly (8 jobs on one pool);
	// the flat spine keeps DLRM at exactly 1.0.
	moe, err := res.Cell("Torus-Pods", WLMoE, 8)
	if err != nil {
		t.Fatal(err)
	}
	if moe.MeanSlowdown < 2 {
		t.Errorf("8 MoE jobs on one pool: slowdown %.3f, want >= 2 (pool contention)", moe.MeanSlowdown)
	}
	dlrm, err := res.Cell("SW-Flat", WLDLRM, 8)
	if err != nil {
		t.Fatal(err)
	}
	if dlrm.MeanSlowdown != 1.0 {
		t.Errorf("DLRM on the flat spine: slowdown %.4f, want exactly 1.0 (capacity suffices)", dlrm.MeanSlowdown)
	}
	// And the oversubscribed spine does interfere with DLRM's All-to-All.
	dlrmTaper, err := res.Cell("SW-Taper4", WLDLRM, 8)
	if err != nil {
		t.Fatal(err)
	}
	if dlrmTaper.MeanSlowdown <= 1.0 {
		t.Errorf("DLRM on the 4:1 spine: slowdown %.4f, want > 1.0", dlrmTaper.MeanSlowdown)
	}
}

// TestInterferenceDeterministicAcrossWorkers mirrors the sweep/search
// determinism contract: the grid's cells are identical at any -parallel
// worker count.
func TestInterferenceDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the reduced grid twice")
	}
	serial, err := Interference(Options{Reduced: true, Exec: sweep.Exec{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Interference(Options{Reduced: true, Exec: sweep.Exec{Workers: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("interference grid differs between 1 and 8 workers")
	}
}
