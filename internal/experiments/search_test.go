package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sweep"
)

func TestFabricSearchSystemsShape(t *testing.T) {
	systems := FabricSearchSystems()
	if len(systems) != 24 {
		t.Fatalf("%d systems, want 6 fabrics x 4 scales", len(systems))
	}
	for _, s := range systems {
		if s.Top.NumNPUs() != 512 {
			t.Errorf("%s has %d NPUs, want 512", s.Name, s.Top.NumNPUs())
		}
	}
	// Scaled names stay parseable back to their fabric.
	var found int
	for _, s := range systems {
		if strings.HasPrefix(s.Name, "SW-Flat x") {
			found++
		}
	}
	if found != 4 {
		t.Errorf("%d SW-Flat scales, want 4", found)
	}
	// Each fabric at each scale, fabric-major: the fabric's notation at
	// its GB/s times the scale.
	var want []string
	for _, f := range FabricSystems() {
		for _, scale := range []float64{0.5, 1, 2, 4} {
			gbps := make([]string, len(f.Top.Dims))
			for d, dim := range f.Top.Dims {
				gbps[d] = sweep.FormatFloat(dim.Bandwidth.GBpsValue() * scale)
			}
			want = append(want, f.Name+" x"+sweep.FormatFloat(scale)+" "+f.Top.String()+" @ "+strings.Join(gbps, "/"))
		}
	}
	checkMachines(t, systems, want)
}

// TestFabricSearchRecoversOptimum is the subsystem's acceptance claim: on
// the reduced fabrics grid the halving search finds the same optimum as
// the exhaustive sweep while running the full event engine on at most 30%
// of the cells, and the run is reproducible at any worker count.
func TestFabricSearchRecoversOptimum(t *testing.T) {
	if testing.Short() {
		t.Skip("search grid simulates GPT-3 on 512-NPU systems")
	}
	res, err := FabricSearch(Options{Reduced: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Space != 24 {
		t.Fatalf("space = %d, want 24", res.Space)
	}
	if res.Exhaustive.Simulations != 24 {
		t.Errorf("exhaustive ran %d simulations, want 24", res.Exhaustive.Simulations)
	}
	if !res.Recovered {
		t.Errorf("halving best %q != exhaustive best %q",
			res.Halving.Best.Label, res.Exhaustive.Best.Label)
	}
	if res.SimFraction > 0.3 {
		t.Errorf("halving simulated %.0f%% of the space, want <= 30%%", 100*res.SimFraction)
	}
	if res.Halving.Best.Score != res.Exhaustive.Best.Score {
		t.Errorf("winner scores differ: %g vs %g", res.Halving.Best.Score, res.Exhaustive.Best.Score)
	}
	// More bandwidth can only help GPT-3: the winner sits at max scale.
	if !strings.HasSuffix(res.Exhaustive.Best.Label, "x4") {
		t.Errorf("exhaustive winner %q is not a x4-provisioned fabric", res.Exhaustive.Best.Label)
	}

	// Reproducibility: a fixed seed and budget give byte-identical results
	// at any worker count.
	want, err := json.Marshal(res.Halving)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		again, err := FabricSearch(Options{Reduced: true, Exec: sweep.Exec{Workers: workers}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(again.Halving)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("workers=%d: halving result differs", workers)
		}
	}
}
