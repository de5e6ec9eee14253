package etgen

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/et"
	"repro/internal/memory"
	"repro/internal/topology"
	"repro/internal/units"
)

func tinyModel(mp int) TransformerConfig {
	return TransformerConfig{
		Name: "tiny", Params: 4e9, Layers: 8, Hidden: 2048, SeqLen: 512,
		MicroBatch: 1, BytesPerElem: 2, MP: mp,
	}
}

func TestMapGrid(t *testing.T) {
	top := conv4D() // 2 x 8 x 8 x 4 = 512
	grids, err := MapGrid(top, 4, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(grids) != 3 {
		t.Fatalf("grids = %d", len(grids))
	}
	// Factor products must match.
	for i, want := range []int{4, 32, 4} {
		if got := spanProduct(grids[i]); got != want {
			t.Errorf("grid %d covers %d, want %d", i, got, want)
		}
	}
	// Factors partition the rank space: reconstruct rank 0..511 coverage
	// by checking the innermost factor starts at stride 1 and the last
	// ends at the machine boundary.
	if grids[0][0].Stride != 1 {
		t.Errorf("inner factor stride = %d", grids[0][0].Stride)
	}
}

func TestMapGridErrors(t *testing.T) {
	top := wafer(512)
	if _, err := MapGrid(top, 3, 171); err == nil {
		t.Error("non-divisor boundary accepted")
	}
	if _, err := MapGrid(top, 256, 4); err == nil {
		t.Error("over-covering grid accepted")
	}
	if _, err := MapGrid(top, 0, 512); err == nil {
		t.Error("zero factor accepted")
	}
}

func TestThreeDTraceValidatesAndRuns(t *testing.T) {
	// 32 NPUs: MP=4, DP=2, stages=4.
	top := topology.MustNew(
		topology.Dim{Kind: topology.Ring, Size: 8, Bandwidth: units.GBps(300)},
		topology.Dim{Kind: topology.Switch, Size: 4, Bandwidth: units.GBps(50)},
	)
	cfg := ThreeDConfig{Model: tinyModel(4), Stages: 4, MicroBatches: 4}
	tr, err := ThreeD(top, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	stats := simRun(t, top, tr, memory.System{})
	if stats.Makespan <= 0 {
		t.Fatal("empty makespan")
	}
	b := stats.MeanBreakdown()
	if b.Compute <= 0 || b.ExposedComm <= 0 {
		t.Errorf("3D breakdown missing compute or comm: %+v", b)
	}
	// Stage-0 ranks idle during the pipeline drain.
	if stats.PerNPU[0].Idle <= 0 {
		t.Errorf("stage-0 rank should see bubble idle: %+v", stats.PerNPU[0])
	}
}

func TestThreeDValidation(t *testing.T) {
	top := wafer(32)
	if _, err := ThreeD(top, ThreeDConfig{Model: tinyModel(4), Stages: 1, MicroBatches: 1}); err == nil {
		t.Error("single stage accepted")
	}
	if _, err := ThreeD(top, ThreeDConfig{Model: tinyModel(5), Stages: 4, MicroBatches: 1}); err == nil {
		t.Error("non-dividing MP accepted")
	}
	bad := tinyModel(4)
	bad.Layers = 6 // does not divide into 4 stages
	if _, err := ThreeD(top, ThreeDConfig{Model: bad, Stages: 4, MicroBatches: 1}); err == nil {
		t.Error("non-dividing layer count accepted")
	}
}

func TestThreeDDifferentStagesDifferentGraphs(t *testing.T) {
	top := wafer(16)
	tr, err := ThreeD(top, ThreeDConfig{Model: tinyModel(2), Stages: 2, MicroBatches: 2})
	if err != nil {
		t.Fatal(err)
	}
	plans, err := tr.Plans()
	if err != nil {
		t.Fatal(err)
	}
	// First and last stage differ structurally: stage 0 only sends
	// downstream (forward) and receives from downstream (backward); the
	// last stage is the mirror image. Resolved peers must be one block (8)
	// apart.
	for _, c := range []struct{ rank, peer int }{{0, 8}, {15, 7}} {
		for i := range tr.Graphs[c.rank].Nodes {
			switch n := &tr.Graphs[c.rank].Nodes[i]; n.Kind {
			case et.KindSend, et.KindRecv:
				if got := plans[c.rank].Peer(n, c.rank); got != c.peer {
					t.Errorf("rank %d %s peer = %d, want %d", c.rank, n.Kind, got, c.peer)
				}
			}
		}
	}
	// Each edge stage has one send and one recv per microbatch.
	count := func(g *et.Graph, kind et.NodeKind) int {
		c := 0
		for _, n := range g.Nodes {
			if n.Kind == kind {
				c++
			}
		}
		return c
	}
	if count(tr.Graphs[0], et.KindSend) != 2 || count(tr.Graphs[0], et.KindRecv) != 2 {
		t.Errorf("stage 0 p2p = %d sends / %d recvs, want 2/2",
			count(tr.Graphs[0], et.KindSend), count(tr.Graphs[0], et.KindRecv))
	}
	// A middle... with 2 stages there is no middle; the mirror check above
	// suffices.
}

// A 3D trace shares one list per stage class, with rank-relative peers,
// but encodes to the same JSON as when every rank had its own list with
// absolute peers: the digest was taken from that per-rank generator.
func TestThreeDEncodeDigest(t *testing.T) {
	tr, err := ThreeD(wafer(16), ThreeDConfig{Model: tinyModel(2), Stages: 4, MicroBatches: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := tr.Encode(h); err != nil {
		t.Fatal(err)
	}
	const want = "14c5a1463dea8aa6e702a1ed4f153a6485d8deb983971cdcb1cdf3df61b7c92a"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("Encode digest %s, want %s", got, want)
	}
}

func TestFSDPTraceRuns(t *testing.T) {
	top := wafer(8)
	tr, err := FSDP(top, FSDPConfig{Model: tinyModel(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	stats := simRun(t, top, tr, memory.System{})
	if stats.Makespan <= 0 {
		t.Fatal("empty makespan")
	}
	// FSDP is gather/scatter heavy: both collective types must appear.
	var ag, rs int
	for _, n := range tr.Graphs[0].Nodes {
		switch n.Collective {
		case et.CollAllGather:
			ag++
		case et.CollReduceScatter:
			rs++
		}
	}
	if ag != 16 || rs != 8 { // 8 layers: fwd+bwd gathers, bwd scatters
		t.Errorf("FSDP collectives: %d AG / %d RS", ag, rs)
	}
}

func TestFSDPPrefetchHelps(t *testing.T) {
	top := wafer(8)
	run := func(noPrefetch bool) units.Time {
		tr, err := FSDP(top, FSDPConfig{Model: tinyModel(1), NoPrefetch: noPrefetch})
		if err != nil {
			t.Fatal(err)
		}
		return simRun(t, top, tr, memory.System{}).Makespan
	}
	with, without := run(false), run(true)
	if with >= without {
		t.Errorf("prefetch (%v) should beat no-prefetch (%v)", with, without)
	}
}

func TestFSDPValidation(t *testing.T) {
	top := wafer(8)
	bad := tinyModel(1)
	bad.Layers = 0
	if _, err := FSDP(top, FSDPConfig{Model: bad}); err == nil {
		t.Error("invalid model accepted")
	}
}
