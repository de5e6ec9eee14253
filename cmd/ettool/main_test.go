package main

import (
	"testing"

	"repro/internal/et"
	"repro/internal/topology"
	"repro/internal/units"
)

// TestGenerateEveryWorkload generates and validates every workload gen
// accepts, and checks that the pipeline moves the MiB-sized activations and
// gradients astrasim -workload pipeline simulates.
func TestGenerateEveryWorkload(t *testing.T) {
	top, err := topology.Parse("R(16)_R(8)")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range genWorkloads {
		trace, err := generate(w, top, units.MB)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if trace.NumNPUs != top.NumNPUs() {
			t.Errorf("%s: trace for %d NPUs, want %d", w, trace.NumNPUs, top.NumNPUs())
		}
		if w != "pipeline" {
			continue
		}
		var sends, allReduces int
		for _, g := range trace.Graphs {
			for i := range g.Nodes {
				switch n := &g.Nodes[i]; n.Kind {
				case et.KindSend:
					sends++
					if n.CommBytes != int64(16*units.MiB) {
						t.Errorf("pipeline send %s on NPU %d carries %d bytes, want 16 MiB", n.Name, g.NPU, n.CommBytes)
					}
				case et.KindComm:
					allReduces++
					if n.CommBytes != int64(64*units.MiB) {
						t.Errorf("pipeline all-reduce %s on NPU %d carries %d bytes, want 64 MiB", n.Name, g.NPU, n.CommBytes)
					}
				}
			}
		}
		if sends == 0 || allReduces == 0 {
			t.Errorf("pipeline has %d sends and %d all-reduces, want both", sends, allReduces)
		}
	}
	if _, err := generate("broadcast", top, units.MB); err == nil {
		t.Error("unknown workload accepted")
	}
}
