package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/compute"
	"repro/internal/core"
	"repro/internal/et"
	"repro/internal/memory"
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

// gen writes a pipeline trace byte for byte as it did when every rank had
// its own list with absolute peers (the digest was taken then), and
// validate accepts it.
func TestGenPipelineDigest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pipeline.json")
	if err := runGen([]string{"-workload", "pipeline", "-topology", "FC(4)_SW(2)_R(4)", "-o", path}); err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "c09d17666bc0aa6b4bc88c9907d90d4e537497c1248c0c74460a2fc030641ed6"
	if sum := sha256.Sum256(doc); hex.EncodeToString(sum[:]) != want {
		t.Errorf("gen output digest %x, want %s", sum, want)
	}
	if _, err := loadTrace(path); err != nil {
		t.Errorf("validate rejects the generated trace: %v", err)
	}
}

// The JSON gen writes for the pipeline holds ranks, and decodes to the
// generated lists, peers as offsets from each graph's NPU, one copy per
// rank. The decoded trace runs to the same RunStats as the generated one
// at one and at three iterations.
func TestGenPipelineJSONRunsAsGenerated(t *testing.T) {
	const spec = "FC(4)_SW(2)_R(4)"
	top, err := topology.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	generated, err := generate("pipeline", top, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pipeline.json")
	if err := runGen([]string{"-workload", "pipeline", "-topology", spec, "-o", path}); err != nil {
		t.Fatal(err)
	}
	decoded, err := loadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	negative := false
	for i, g := range decoded.Graphs {
		want := generated.Graphs[i]
		if g.NPU != want.NPU || !reflect.DeepEqual(g.Nodes, want.Nodes) {
			t.Fatalf("graph %d: decoded npu %d's list differs from the generated npu %d's", i, g.NPU, want.NPU)
		}
		for _, n := range g.Nodes {
			negative = negative || n.Peer < 0
		}
	}
	if !negative {
		t.Error("no decoded peer is negative; a receive from the previous stage should be")
	}
	cfg := core.Config{
		Topology: top,
		Compute:  compute.Model{Peak: units.TFLOPS(100), MemBandwidth: units.GBps(2000)},
		Memory:   memory.System{Local: memory.LocalModel{Latency: units.Microsecond, Bandwidth: units.GBps(2000)}},
	}
	for _, iters := range []int{1, 3} {
		var stats [2]*core.RunStats
		for k, tr := range []*et.Trace{generated, decoded} {
			tr.Iterations = iters
			sim, err := core.NewSimulator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if stats[k], err = sim.Run(tr); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(stats[0], stats[1]) {
			t.Errorf("x%d: decoded JSON runs in %v and %d events, generated trace in %v and %d",
				iters, stats[1].Makespan, stats[1].Events, stats[0].Makespan, stats[0].Events)
		}
	}
}
