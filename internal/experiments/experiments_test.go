package experiments

import (
	"strings"
	"testing"

	"repro/internal/collective"
	"repro/internal/sweep"
	"repro/internal/units"
)

// The tests in this file assert the paper's qualitative claims — who wins,
// by roughly what factor, where crossovers fall — for every reproduced
// table and figure. Absolute values are recorded in EXPERIMENTS.md.

// checkMachines pins every named system, in order, to a "name notation @
// GB/s/..." line: its shape notation and its per-dimension bandwidths. Every
// dimension must also have the case studies' 500 ns hop latency.
func checkMachines(t *testing.T, systems []System, want []string) {
	t.Helper()
	if len(systems) != len(want) {
		t.Errorf("%d systems, want %d", len(systems), len(want))
	}
	for i, s := range systems {
		gbps := make([]string, len(s.Top.Dims))
		for d, dim := range s.Top.Dims {
			gbps[d] = sweep.FormatFloat(dim.Bandwidth.GBpsValue())
			if dim.Latency != 500*units.Nanosecond {
				t.Errorf("%s dim %d hop latency %v, want 500ns", s.Name, d+1, dim.Latency)
			}
		}
		got := s.Name + " " + s.Top.String() + " @ " + strings.Join(gbps, "/")
		if i < len(want) && got != want[i] {
			t.Errorf("system %d = %q, want %q", i, got, want[i])
		}
	}
}

func TestTableIISystems(t *testing.T) {
	systems := TableII()
	if len(systems) != 6 {
		t.Fatalf("TableII has %d systems, want 6", len(systems))
	}
	for _, s := range systems {
		if s.Top.NumNPUs() != 512 {
			t.Errorf("%s has %d NPUs, want 512 (Table II)", s.Name, s.Top.NumNPUs())
		}
	}
	// Conv-4D drives 600 GB/s per NPU — the paper's comparison point for
	// W-1D-600.
	conv4d, err := FindSystem(systems, "Conv-4D")
	if err != nil {
		t.Fatal(err)
	}
	if got := conv4d.Top.AggregateBandwidth(); got != units.GBps(600) {
		t.Errorf("Conv-4D BW/NPU = %v, want 600GB/s", got)
	}
	if _, err := FindSystem(systems, "nope"); err == nil {
		t.Error("unknown system accepted")
	}
	checkMachines(t, systems, []string{
		"W-1D-350 SW(512) @ 350",
		"W-1D-500 SW(512) @ 500",
		"W-1D-600 SW(512) @ 600",
		"W-2D-500 SW(32)_SW(16) @ 250/250",
		"Conv-3D R(16)_FC(8)_SW(4) @ 200/100/50",
		"Conv-4D R(2)_FC(8)_R(8)_SW(4) @ 250/200/100/50",
	})
}

// --- E1: Fig. 4 ---

func TestFig4ValidationError(t *testing.T) {
	res, err := Fig4(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("Fig4 has %d rows, want 12 (6 sizes x 2 system sizes)", len(res.Rows))
	}
	// The paper reports a 5% mean error; our reference model is tuned from
	// public NCCL characteristics, so allow a band around it.
	if res.MeanAbsErrorPct > 8 {
		t.Errorf("mean |error| = %.2f%%, want <= 8%% (paper: 5%%)", res.MeanAbsErrorPct)
	}
	// Errors shrink as collectives grow more bandwidth-bound.
	for _, k := range []int{4, 16} {
		var small, large float64
		for _, r := range res.Rows {
			if r.NPUs != k {
				continue
			}
			if r.Size == 64*units.MB {
				small = r.ErrorPct
			}
			if r.Size == 1500*units.MB {
				large = r.ErrorPct
			}
		}
		if abs(large) >= abs(small) {
			t.Errorf("k=%d: error should shrink with size: %.2f%% -> %.2f%%", k, small, large)
		}
	}
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

// --- E2: speedup study ---

func TestSpeedupAnalyticalVsCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("cycle-level simulation is slow by design")
	}
	res, err := Speedup(units.MB, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The analytical backend must be orders of magnitude faster in
	// wall-clock while agreeing on the simulated collective time.
	if res.SpeedupSmall < 100 {
		t.Errorf("analytical speedup = %.0fx, want >= 100x (paper: 756x)", res.SpeedupSmall)
	}
	if res.SimTimeAgreementPct > 2 {
		t.Errorf("simulated-time disagreement = %.2f%%, want <= 2%%", res.SimTimeAgreementPct)
	}
	// The large configuration must complete quickly (the paper: 3.14 s for
	// 4K NPUs; ours is a far smaller constant).
	if res.AnalyticalWallLarge.Seconds() > 30 {
		t.Errorf("16x16x16 analytical run took %v", res.AnalyticalWallLarge)
	}
}

// --- E3: Table IV ---

func TestTableIVShape(t *testing.T) {
	res, err := TableIV(Options{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := res.Row("Base-512")
	if err != nil {
		t.Fatal(err)
	}

	// Traffic columns must reproduce the paper's megabyte values exactly
	// (sent+received per NPU; Table IV row 1: 1024/896/112/12).
	wantTraffic := map[string][4]float64{
		"Base-512":  {1024, 896, 112, 12},
		"Conv-1024": {1024, 896, 112, 14},
		"Conv-2048": {1024, 896, 112, 15},
		"Conv-4096": {1024, 896, 112, 15.5},
		"W-1024":    {1536, 448, 56, 6},
		"W-2048":    {1792, 224, 28, 3},
		"W-4096":    {1920, 112, 14, 1.5},
	}
	for name, want := range wantTraffic {
		row, err := res.Row(name)
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < 4; d++ {
			if diff := row.TrafficPerDim[d] - want[d]; abs(diff) > 0.6 {
				t.Errorf("%s dim %d traffic = %.1f MB, want %.1f (paper Table IV)",
					name, d+1, row.TrafficPerDim[d], want[d])
			}
		}
	}

	// Conventional scale-out: collective time stays within 2% of base.
	for _, name := range []string{"Conv-1024", "Conv-2048", "Conv-4096"} {
		row, _ := res.Row(name)
		ratio := float64(row.CollectiveTime) / float64(base.CollectiveTime)
		if ratio < 0.98 || ratio > 1.02 {
			t.Errorf("%s time %.2fx of base; paper shows identical times", name, ratio)
		}
	}

	// Wafer scale-up: monotone improvement to W-2048, then a bounce.
	w1024, _ := res.Row("W-1024")
	w2048, _ := res.Row("W-2048")
	w4096, _ := res.Row("W-4096")
	if !(w1024.CollectiveTime < base.CollectiveTime && w2048.CollectiveTime < w1024.CollectiveTime) {
		t.Error("wafer scaling should monotonically improve through W-2048")
	}
	if w4096.CollectiveTime <= w2048.CollectiveTime {
		t.Error("W-4096 should bounce upward (on-wafer dim becomes bottleneck)")
	}
	speedup := float64(base.CollectiveTime) / float64(w2048.CollectiveTime)
	if speedup < 2.2 || speedup > 2.8 {
		t.Errorf("peak wafer speedup = %.2fx, want within [2.2, 2.8] (paper: 2.51x)", speedup)
	}
}

// --- E4: Fig. 9(a) ---

func TestFig9aClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("48-cell case-study grid simulates reduced GPT-3/T1T iterations")
	}
	res, err := Fig9a(Options{Reduced: true})
	if err != nil {
		t.Fatal(err)
	}
	// Claim 1: 1-D wafers gain nothing from Themis.
	for _, sys := range []string{"W-1D-350", "W-1D-500", "W-1D-600"} {
		for _, wl := range Workloads() {
			b, err := res.Cell(sys, wl, collective.Baseline)
			if err != nil {
				t.Fatal(err)
			}
			th, err := res.Cell(sys, wl, collective.Themis)
			if err != nil {
				t.Fatal(err)
			}
			ratio := float64(b.Total) / float64(th.Total)
			if ratio < 0.99 || ratio > 1.01 {
				t.Errorf("%s/%s: Themis changed a 1-D system by %.3fx", sys, wl, ratio)
			}
		}
	}

	// Claim 2: multi-dimensional systems heavily benefit from Themis on
	// the single All-Reduce.
	for sys, minGain := range map[string]float64{"W-2D-500": 1.5, "Conv-3D": 1.3, "Conv-4D": 1.1} {
		b, _ := res.Cell(sys, WLAllReduce, collective.Baseline)
		th, _ := res.Cell(sys, WLAllReduce, collective.Themis)
		gain := float64(b.Total) / float64(th.Total)
		if gain < minGain {
			t.Errorf("%s All-Reduce Themis gain = %.2fx, want >= %.2fx", sys, gain, minGain)
		}
	}

	// Claim 3: with Themis, Conv-4D (600 GB/s/NPU) roughly matches
	// W-1D-600 for the single All-Reduce and DLRM.
	for _, wl := range []Workload{WLAllReduce, WLDLRM} {
		conv, _ := res.Cell("Conv-4D", wl, collective.Themis)
		wafer, _ := res.Cell("W-1D-600", wl, collective.Baseline)
		ratio := float64(conv.Total) / float64(wafer.Total)
		if ratio > 1.35 {
			t.Errorf("%s: Conv-4D+Themis %.2fx of W-1D-600; paper says near-identical", wl, ratio)
		}
	}

	// Claim 4: wafer-scale keeps its lead on GPT-3 and Transformer-1T even
	// against Themis (hybrid parallelism uses only a subset of dims).
	for _, wl := range []Workload{WLGPT3, WLT1T} {
		conv, _ := res.Cell("Conv-4D", wl, collective.Themis)
		wafer, _ := res.Cell("W-1D-600", wl, collective.Baseline)
		if wafer.Total >= conv.Total {
			t.Errorf("%s: wafer (%v) should beat Conv-4D+Themis (%v)", wl, wafer.Total, conv.Total)
		}
	}

	// W-1D-350 vs Conv-4D baseline: more BW/NPU wins despite being
	// multi-dimensional (Section V-A-1).
	convBase, _ := res.Cell("Conv-4D", WLAllReduce, collective.Baseline)
	w350, _ := res.Cell("W-1D-350", WLAllReduce, collective.Baseline)
	if convBase.Total >= w350.Total {
		t.Error("Conv-4D (600 GB/s/NPU) should beat W-1D-350 on All-Reduce")
	}
}

// --- E5: Fig. 9(b) ---

func TestFig9bScalingTrend(t *testing.T) {
	if testing.Short() {
		t.Skip("28-cell scaling grid reaches 4096-NPU systems")
	}
	res, err := Fig9b(Options{Reduced: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range []Workload{WLAllReduce, WLGPT3, WLT1T} {
		base, err := res.Cell("Base-512", wl, collective.Baseline)
		if err != nil {
			t.Fatal(err)
		}
		// Conventional scale-out leaves the communication-bound runtime
		// roughly flat (compute per NPU is constant in our weak-scaling
		// setup, so total runtime must not improve).
		conv4096, _ := res.Cell("Conv-4096", wl, collective.Baseline)
		if float64(conv4096.Total) < 0.95*float64(base.Total) {
			t.Errorf("%s: Conv-4096 improved over base (%v vs %v); scale-out should not help", wl, conv4096.Total, base.Total)
		}
		// Wafer scale-up helps.
		w2048, _ := res.Cell("W-2048", wl, collective.Baseline)
		if float64(w2048.Total) > 0.98*float64(base.Total) {
			t.Errorf("%s: W-2048 (%v) should improve on base (%v)", wl, w2048.Total, base.Total)
		}
	}
	// The single All-Reduce mirrors Table IV's bounce.
	w2048, _ := res.Cell("W-2048", WLAllReduce, collective.Baseline)
	w4096, _ := res.Cell("W-4096", WLAllReduce, collective.Baseline)
	if w4096.Total <= w2048.Total {
		t.Error("All-Reduce: W-4096 should bounce upward vs W-2048")
	}
}

// --- E6/E7: Fig. 11 + sweep ---

func TestFig11Claims(t *testing.T) {
	if testing.Short() {
		t.Skip("eight MoE-1T iterations on 256 GPUs")
	}
	res, err := Fig11(Options{Reduced: true})
	if err != nil {
		t.Fatal(err)
	}
	zero, err := res.Bar(SysZeroInfinity)
	if err != nil {
		t.Fatal(err)
	}
	base, err := res.Bar(SysHierMemBaseline)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := res.Bar(SysHierMemOpt)
	if err != nil {
		t.Fatal(err)
	}

	// Claim 1: ZeRO-Infinity and HierMem baseline are nearly equal
	// (paper: 0.1%; equivalent resources).
	if res.ZeroVsBaselinePct > 5 {
		t.Errorf("ZeRO vs baseline differ by %.2f%%, want <= 5%%", res.ZeroVsBaselinePct)
	}

	// Claim 2: exposed communication dominates ZeRO and the baseline.
	for _, b := range []Fig11Bar{zero, base} {
		if b.ExposedComm <= b.Compute || b.ExposedComm <= b.ExposedRemoteMem {
			t.Errorf("%s: exposed comm (%v) should dominate compute (%v) and remote (%v)",
				b.System, b.ExposedComm, b.Compute, b.ExposedRemoteMem)
		}
	}

	// Claim 3: the swept optimum is several times faster than the
	// baseline (paper: 4.6x).
	if res.SpeedupOptVsBaseline < 3.5 || res.SpeedupOptVsBaseline > 7 {
		t.Errorf("opt speedup = %.2fx, want within [3.5, 7] (paper: 4.6x)", res.SpeedupOptVsBaseline)
	}

	// The optimum hides communication: opt's exposed comm share drops.
	baseShare := float64(base.ExposedComm) / float64(base.Total)
	optShare := float64(opt.ExposedComm) / float64(opt.Total)
	if optShare >= baseShare {
		t.Errorf("opt comm share %.2f should be below baseline %.2f", optShare, baseShare)
	}

	// Sweep sanity: more bandwidth never hurts.
	for _, p := range res.Sweep {
		if p.InNodeFabricGBps == 256 && p.RemoteGroupGBps == 100 {
			if p.Total != base.Total {
				t.Errorf("sweep corner (256,100) = %v, want baseline %v", p.Total, base.Total)
			}
		}
	}
}

// --- E8: taxonomy (Table I / Fig. 3) is covered by topology tests; here we
// confirm the scaling systems build with the documented shapes. ---

func TestScalingSystemShapes(t *testing.T) {
	want := map[string]int{
		"Base-512": 512, "Conv-1024": 1024, "Conv-2048": 2048, "Conv-4096": 4096,
		"W-1024": 1024, "W-2048": 2048, "W-4096": 4096,
	}
	for _, s := range ScalingSystems() {
		if s.Top.NumNPUs() != want[s.Name] {
			t.Errorf("%s has %d NPUs, want %d", s.Name, s.Top.NumNPUs(), want[s.Name])
		}
		if s.Top.Dims[0].Bandwidth != units.GBps(1000) {
			t.Errorf("%s Dim 1 BW = %v, want 1000GB/s", s.Name, s.Top.Dims[0].Bandwidth)
		}
	}
	checkMachines(t, ScalingSystems(), []string{
		"Base-512 R(2)_FC(8)_R(8)_SW(4) @ 1000/200/100/50",
		"Conv-1024 R(2)_FC(8)_R(8)_SW(8) @ 1000/200/100/50",
		"Conv-2048 R(2)_FC(8)_R(8)_SW(16) @ 1000/200/100/50",
		"Conv-4096 R(2)_FC(8)_R(8)_SW(32) @ 1000/200/100/50",
		"W-1024 R(4)_FC(8)_R(8)_SW(4) @ 1000/200/100/50",
		"W-2048 R(8)_FC(8)_R(8)_SW(4) @ 1000/200/100/50",
		"W-4096 R(16)_FC(8)_R(8)_SW(4) @ 1000/200/100/50",
	})
}

// The Fig. 11 GPU network: an in-node switch under an out-node fabric.
func TestFig11Machine(t *testing.T) {
	checkMachines(t, []System{{Name: "Fig11", Top: fig11Topology()}}, []string{
		"Fig11 SW(16)_SW(16) @ 460/100",
	})
}
