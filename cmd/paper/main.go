// Command paper regenerates every table and figure of the paper's
// evaluation (README "Reproducing the paper" lists each artifact):
//
//	paper -exp fig4      analytical-backend validation (Fig. 4)
//	paper -exp speedup   analytical vs cycle-level backend (Sec. IV-C)
//	paper -exp tableiv   wafer-scaling study (Table IV)
//	paper -exp fig9a     wafer vs conventional, 512 NPUs (Fig. 9a)
//	paper -exp fig9b     scalability study (Fig. 9b)
//	paper -exp fig11     disaggregated memory study (Table V / Fig. 11)
//	paper -exp taxonomy  topology notation round-trips (Fig. 3 / Table I)
//	paper -exp ablation  chunk pipelining depth x scheduler ablation
//	paper -exp pools     Fig. 5 pool architectures under one bulk transfer
//	paper -exp fabrics   pluggable-fabric comparison (Torus vs Ring-stack
//	                     vs oversubscribed Switch, GPT-3 + 1 GB All-Reduce)
//	paper -exp search    multi-fidelity design-space search: recover the
//	                     best GPT-3 fabric from the 24-point fabrics x
//	                     provisioning space with 25% of the simulations
//	paper -exp interference  multi-job interference: 1-8 co-scheduled
//	                     GPT-3/DLRM/MoE jobs on flat vs tapered switch vs
//	                     torus-pod fabrics, per-job slowdown vs isolated
//	paper -exp resilience    failure/straggler study: GPT-3 + DLRM on flat
//	                     vs torus-pod fabrics under mid-run spine
//	                     degradation and 1-5% compute stragglers, slowdown
//	                     vs the clean run
//	paper -exp all       everything above
//
// Every experiment grid runs on the parallel sweep engine; -parallel
// bounds the workers (results are byte-identical for any count), and -json
// emits machine-readable documents. A user-defined machine x workload grid
// runs with astrasim -sweep.
//
// Pass -reduced to shrink the workload layer counts 8x (ratios preserved);
// the full grids take a few minutes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/collective"
	"repro/internal/experiments"
	"repro/internal/prof"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/units"
)

// experimentTable lists every experiment in the order -exp all runs them;
// the -exp flag's help text and lookup read it too.
var experimentTable = []struct {
	name string
	run  func(experiments.Options, bool) error
}{
	{"fig4", runFig4},
	{"speedup", runSpeedup},
	{"tableiv", runTableIV},
	{"fig9a", runFig9a},
	{"fig9b", runFig9b},
	{"fig11", runFig11},
	{"taxonomy", runTaxonomy},
	{"ablation", runAblation},
	{"pools", runPoolDesigns},
	{"fabrics", runFabrics},
	{"search", runSearch},
	{"interference", runInterference},
	{"resilience", runResilience},
}

func main() {
	names := make([]string, 0, len(experimentTable)+1)
	for _, e := range experimentTable {
		names = append(names, e.name)
	}
	exp := flag.String("exp", "all", "experiment to run ("+strings.Join(append(names, "all"), "|")+")")
	reduced := flag.Bool("reduced", false, "shrink workloads for a quick pass")
	parallel := flag.Int("parallel", 0, "sweep worker count; 0 = all cores (results identical for any value)")
	jsonOut := flag.Bool("json", false, "emit results as JSON instead of tables")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write a heap allocation profile to this file at exit")
	flag.Parse()

	if err := prof.Start(*cpuprofile, *memprofile); err != nil {
		fatal(err)
	}
	defer prof.Stop()

	o := experiments.Options{Reduced: *reduced, Exec: sweep.Exec{Workers: *parallel}}
	ran := false
	for _, e := range experimentTable {
		if *exp == "all" || *exp == e.name {
			if err := e.run(o, *jsonOut); err != nil {
				fatal(err)
			}
			ran = true
		}
	}
	if !ran {
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paper:", err)
	prof.Stop() // os.Exit skips defers; flush any active profile capture
	os.Exit(1)
}

func header(s string) {
	fmt.Printf("\n## %s\n\n", s)
}

// emitJSON prints one experiment's result as a JSON document.
func emitJSON(name string, v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{"experiment": name, "result": v})
}

func runFig4(o experiments.Options, jsonOut bool) error {
	res, err := experiments.Fig4(o)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON("fig4", res)
	}
	header("Fig. 4 — analytical backend validation (All-Reduce on NVLink rings)")
	fmt.Printf("%-6s %-10s %14s %14s %10s\n", "NPUs", "Size", "Reference", "Analytical", "Error")
	for _, r := range res.Rows {
		fmt.Printf("%-6d %-10s %12.1fus %12.1fus %9.1f%%\n",
			r.NPUs, r.Size, r.Reference.Micros(), r.Analytical.Micros(), r.ErrorPct)
	}
	fmt.Printf("\nmean |error| = %.2f%%   (paper: 5%%)\n", res.MeanAbsErrorPct)
	return nil
}

func runSpeedup(o experiments.Options, jsonOut bool) error {
	res, err := experiments.Speedup(units.MB, o)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON("speedup", res)
	}
	header("Sec. IV-C — analytical vs cycle-level backend (1 MB All-Reduce)")
	fmt.Printf("4x4x4 torus:\n")
	fmt.Printf("  cycle-level:  wall %-14v sim %v (%d cycles)\n", res.CycleWall, res.CycleSimTime, res.CycleCycles)
	fmt.Printf("  analytical:   wall %-14v sim %v\n", res.AnalyticalWall, res.AnalyticalSimTime)
	fmt.Printf("  wall-clock speedup: %.0fx   (paper: 756x)\n", res.SpeedupSmall)
	fmt.Printf("  simulated-time disagreement: %.2f%%\n", res.SimTimeAgreementPct)
	fmt.Printf("16x16x16 torus (4096 NPUs), analytical only:\n")
	fmt.Printf("  wall %v, sim %v   (paper: 3.14 s wall)\n", res.AnalyticalWallLarge, res.AnalyticalSimLarge)
	return nil
}

func runTableIV(o experiments.Options, jsonOut bool) error {
	res, err := experiments.TableIV(o)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON("tableiv", res)
	}
	header("Table IV — 1 GB All-Gather under wafer scaling")
	fmt.Printf("%-10s %6s %8s %8s %8s %8s %14s\n", "System", "NPUs", "Dim1MB", "Dim2MB", "Dim3MB", "Dim4MB", "Collective")
	for _, r := range res.Rows {
		fmt.Printf("%-10s %6d %8.1f %8.1f %8.1f %8.1f %12.2fus\n",
			r.System, r.NPUs,
			r.TrafficPerDim[0], r.TrafficPerDim[1], r.TrafficPerDim[2], r.TrafficPerDim[3],
			r.CollectiveTime.Micros())
	}
	base, _ := res.Row("Base-512")
	best, _ := res.Row("W-2048")
	fmt.Printf("\npeak wafer speedup: %.2fx at W-2048   (paper: 2.51x, bounce at W-4096)\n",
		float64(base.CollectiveTime)/float64(best.CollectiveTime))
	return nil
}

func printCells(cells []experiments.Cell, withPolicy bool) {
	fmt.Printf("%-16s %-10s %-9s %12s %12s %12s\n", "Workload", "System", "Scheduler", "Compute", "ExposedComm", "Total")
	for _, c := range cells {
		pol := c.Policy.String()
		if !withPolicy {
			pol = "-"
		}
		fmt.Printf("%-16s %-10s %-9s %10.2fms %10.2fms %10.2fms\n",
			c.Workload, c.System, pol,
			c.Compute.Seconds()*1e3, c.ExposedComm.Seconds()*1e3, c.Total.Seconds()*1e3)
	}
}

func runFig9a(o experiments.Options, jsonOut bool) error {
	res, err := experiments.Fig9a(o)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON("fig9a", res)
	}
	header("Fig. 9(a) — wafer vs conventional systems, 512 NPUs")
	if o.Reduced {
		fmt.Println("(reduced workloads: layer counts / 8; ratios preserved)")
	}
	printCells(res.Cells, true)
	return nil
}

func runFig9b(o experiments.Options, jsonOut bool) error {
	res, err := experiments.Fig9b(o)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON("fig9b", res)
	}
	header("Fig. 9(b) — conventional scale-out vs wafer scale-up")
	if o.Reduced {
		fmt.Println("(reduced workloads: layer counts / 8; ratios preserved)")
	}
	printCells(res.Cells, false)
	return nil
}

func runFig11(o experiments.Options, jsonOut bool) error {
	res, err := experiments.Fig11(o)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON("fig11", res)
	}
	header("Table V / Fig. 11 — disaggregated memory systems (MoE-1T)")
	fmt.Printf("%-20s %10s %12s %12s %12s %10s %10s\n",
		"System", "Compute", "Exp.Comm", "Exp.Remote", "Exp.Local", "Idle", "Total")
	for _, b := range res.Bars {
		fmt.Printf("%-20s %8.1fms %10.1fms %10.1fms %10.1fms %8.1fms %8.1fms\n",
			b.System,
			b.Compute.Seconds()*1e3, b.ExposedComm.Seconds()*1e3,
			b.ExposedRemoteMem.Seconds()*1e3, b.ExposedLocalMem.Seconds()*1e3,
			b.ExposedIdle.Seconds()*1e3, b.Total.Seconds()*1e3)
	}
	fmt.Printf("\nZeRO-Infinity vs HierMem(baseline): %.2f%% apart   (paper: 0.1%%)\n", res.ZeroVsBaselinePct)
	fmt.Printf("HierMem(opt) speedup over baseline: %.2fx          (paper: 4.6x)\n", res.SpeedupOptVsBaseline)
	fmt.Printf("\nDesign-space sweep (in-node fabric GB/s x remote group GB/s):\n")
	for _, p := range res.Sweep {
		fmt.Printf("  in=%5.0f rem=%4.0f  total=%8.1fms\n", p.InNodeFabricGBps, p.RemoteGroupGBps, p.Total.Seconds()*1e3)
	}
	return nil
}

func runTaxonomy(o experiments.Options, jsonOut bool) error {
	examples := []struct{ spec, system string }{
		{"R(4)_R(2)", "Google TPUv2/v3"},
		{"SW(3)_SW(2)", "NVIDIA DGX-2 / DGX-A100"},
		{"FC(4)_SW(2)", "Intel Habana"},
		{"R(4)_SW(2)", "Meta Zion / NVIDIA DGX-1"},
		{"FC(4)_FC(2)_FC(2)", "DragonFly (fully populated)"},
		{"R(4)_R(2)_R(2)", "Google TPUv4 (3D torus)"},
		{"T2D(4,4)_SW(2)", "TPU-style 2D torus pods"},
		{"M(4)_SW(4,2)", "NoC mesh, 2:1 tapered uplinks"},
	}
	if jsonOut {
		type row struct {
			Notation string `json:"notation"`
			NPUs     int    `json:"npus"`
			Platform string `json:"platform"`
		}
		var rows []row
		for _, e := range examples {
			top, err := topology.Parse(e.spec)
			if err != nil {
				return err
			}
			rows = append(rows, row{Notation: top.String(), NPUs: top.NumNPUs(), Platform: e.system})
		}
		return emitJSON("taxonomy", rows)
	}
	header("Fig. 3 / Table I — topology taxonomy")
	fmt.Printf("%-20s %6s %-28s %s\n", "Notation", "NPUs", "Platform", "Per-dim collectives (Table I)")
	for _, e := range examples {
		top, err := topology.Parse(e.spec)
		if err != nil {
			return err
		}
		algs := ""
		for i, d := range top.Dims {
			if i > 0 {
				algs += " / "
			}
			algs += d.Kind.CollectiveName()
		}
		fmt.Printf("%-20s %6d %-28s %s\n", top.String(), top.NumNPUs(), e.system, algs)
	}
	// Demonstrate the closed-form estimator across the examples.
	fmt.Printf("\n64 MB All-Reduce estimates at 100 GB/s per dim:\n")
	for _, e := range examples {
		top, _ := topology.Parse(e.spec)
		for i := range top.Dims {
			top.Dims[i].Bandwidth = units.GBps(100)
		}
		est := collective.Estimate(top, collective.AllReduce, 64*units.MB, collective.FullMachine(top), collective.Baseline, 64)
		fmt.Printf("  %-20s %10.1fus\n", top.String(), est.Micros())
	}
	return nil
}

func runAblation(o experiments.Options, jsonOut bool) error {
	res, err := experiments.Ablation(o)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON("ablation", res)
	}
	header("Ablation — chunk pipelining depth x scheduler (1 GB All-Reduce)")
	fmt.Printf("%-10s %7s %-9s %14s %10s\n", "System", "Chunks", "Scheduler", "Collective", "Events")
	for _, r := range res.Rows {
		fmt.Printf("%-10s %7d %-9s %12.2fus %10d\n",
			r.System, r.Chunks, r.Policy, r.Duration.Micros(), r.SimEvents)
	}
	fmt.Println("\n1 chunk = no cross-dimension pipelining (sum of phases); the default")
	fmt.Println("64 chunks reaches the bottleneck-bound regime the paper's Table IV shows,")
	fmt.Println("and gives Themis enough granularity to balance dimension loads.")
	return nil
}

func runPoolDesigns(o experiments.Options, jsonOut bool) error {
	res, err := experiments.PoolDesigns(o)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON("pools", res)
	}
	header("Extension — Fig. 5 pool architectures under one bulk transfer")
	fmt.Printf("%-28s %12s %14s\n", "Design", "Per-GPU", "Transfer")
	for _, r := range res.Rows {
		fmt.Printf("%-28s %12s %12.2fms\n", r.Design, r.PerGPU, r.Transfer.Seconds()*1e3)
	}
	fmt.Println("\nThe paper evaluates only the hierarchical design (Section V-B); this")
	fmt.Println("grid quantifies the fabric-architecture effect Fig. 5 sketches, at equal")
	fmt.Println("per-resource bandwidths.")
	return nil
}

func runFabrics(o experiments.Options, jsonOut bool) error {
	res, err := experiments.Fabrics(o)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON("fabrics", res)
	}
	header("Extension — pluggable fabric comparison (512 NPUs, 500 GB/s configured per NPU)")
	if o.Reduced {
		fmt.Println("(reduced workloads: layer counts / 8; ratios preserved)")
	}
	printCells(res.Cells, false)
	fmt.Println("\nClosed-form 1 GB All-Reduce screening estimates:")
	est := experiments.FabricEstimates()
	for _, s := range experiments.FabricSystems() {
		fmt.Printf("  %-10s %-18s %10.1fus\n", s.Name, s.Top.String(), est[s.Name].Micros())
	}
	fmt.Println("\nTorus vs ring-stack shows the single-fabric advantage; SW-Taper rows")
	fmt.Println("price leaf-switch oversubscription against the flat switch hierarchy.")
	return nil
}

func runInterference(o experiments.Options, jsonOut bool) error {
	res, err := experiments.Interference(o)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON("interference", res)
	}
	header("Extension — multi-job interference (128-NPU fabrics, 16-NPU jobs, packed placement)")
	if o.Reduced {
		fmt.Println("(reduced workloads: layer counts / 8; ratios preserved)")
	}
	counts := experiments.InterferenceJobCounts()
	fmt.Printf("%-12s %-12s %12s", "Fabric", "Workload", "Isolated")
	for _, n := range counts {
		fmt.Printf(" %9s", fmt.Sprintf("x%d jobs", n))
	}
	fmt.Println("   (mean slowdown vs isolated)")
	for _, sys := range []string{"SW-Flat", "SW-Taper4", "Torus-Pods"} {
		for _, wl := range experiments.InterferenceWorkloads() {
			first, err := res.Cell(sys, wl, counts[0])
			if err != nil {
				return err
			}
			fmt.Printf("%-12s %-12s %10.3fms", sys, wl, first.Isolated.Micros()/1000)
			for _, n := range counts {
				c, err := res.Cell(sys, wl, n)
				if err != nil {
					return err
				}
				fmt.Printf(" %8.3fx", c.MeanSlowdown)
			}
			fmt.Println()
		}
	}
	fmt.Println("\nDLRM's All-to-All saturates the 4:1 spine as jobs pile on; GPT-3's")
	fmt.Println("hierarchical All-Reduce barely touches it. Torus pods isolate the")
	fmt.Println("network entirely — only the shared memory pool slows MoE down.")
	return nil
}

func runResilience(o experiments.Options, jsonOut bool) error {
	res, err := experiments.Resilience(o)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON("resilience", res)
	}
	header("Extension — failure/straggler resilience (128-NPU fabrics, slowdown vs clean run)")
	if o.Reduced {
		fmt.Println("(reduced workloads: layer counts / 8; ratios preserved)")
	}
	scens := experiments.ResilienceScenarios()
	fmt.Printf("%-12s %-12s %12s", "Fabric", "Workload", "Clean")
	for _, sc := range scens {
		fmt.Printf(" %13s", sc)
	}
	fmt.Println()
	for _, sys := range []string{"SW-Flat", "Torus-Pods"} {
		for _, wl := range experiments.ResilienceWorkloads() {
			first, err := res.Cell(sys, wl, scens[0])
			if err != nil {
				return err
			}
			fmt.Printf("%-12s %-12s %10.3fms", sys, wl, first.Clean.Micros()/1000)
			for _, sc := range scens {
				c, err := res.Cell(sys, wl, sc)
				if err != nil {
					return err
				}
				fmt.Printf(" %12.3fx", c.Slowdown)
			}
			fmt.Println()
		}
	}
	fmt.Println("\nThe clean column is the built-in regression check: an attached scenario")
	fmt.Println("with zero events reproduces the unperturbed run byte for byte (exactly")
	fmt.Println("1.000x). Degrading the spine taxes DLRM's All-to-All hardest, and a")
	fmt.Println("single 1.3x straggler costs as much as 5% of them: synchronous training")
	fmt.Println("gates every step on the slowest member, not on how many lag.")
	return nil
}

func runSearch(o experiments.Options, jsonOut bool) error {
	res, err := experiments.FabricSearch(o)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON("search", res)
	}
	header("Extension — multi-fidelity design-space search (fabrics x provisioning, GPT-3; scores in us)")
	if o.Reduced {
		fmt.Println("(reduced workloads: layer counts / 8; ratios preserved)")
	}
	if err := res.Halving.WriteTable(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\nexhaustive baseline: %d full simulations, best %s\n",
		res.Exhaustive.Simulations, res.Exhaustive.Best.Label)
	verdict := "RECOVERED"
	if !res.Recovered {
		verdict = "MISSED"
	}
	fmt.Printf("budgeted search %s the exhaustive optimum simulating %.0f%% of the %d-point space\n",
		verdict, 100*res.SimFraction, res.Space)
	fmt.Println("\nThe halving strategy screens every candidate with the closed-form")
	fmt.Println("All-Reduce estimate and runs the event engine only on the top quartile —")
	fmt.Println("the guided-search workflow the sweep grids exist to support.")
	return nil
}
