package experiments

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/compute"
	"repro/internal/core"
	"repro/internal/et"
	"repro/internal/etgen"
	"repro/internal/memory"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/units"
)

// Fig. 9 — the wafer-scale vs conventional case study (Section V-A).
//
// Fig. 9(a): the six 512-NPU systems of Table II run four workloads
// (a single 1 GB All-Reduce, DLRM, GPT-3, Transformer-1T) under the
// baseline hierarchical collective scheduler and under Themis; bars are
// compute time vs exposed communication time.
//
// Fig. 9(b): the scaling systems of Table IV run the same workloads with
// the baseline scheduler, comparing conventional scale-out against
// wafer-style scale-up.

// Workload identifies one of the study's four workloads (Table III).
type Workload string

// The case-study workloads.
const (
	WLAllReduce Workload = "All-Reduce(1GB)"
	WLDLRM      Workload = "DLRM"
	WLGPT3      Workload = "GPT-3"
	WLT1T       Workload = "Transformer-1T"
)

// Workloads lists them in the paper's column order.
func Workloads() []Workload {
	return []Workload{WLAllReduce, WLDLRM, WLGPT3, WLT1T}
}

// Cell is one bar of Fig. 9: a (system, workload, policy) measurement.
type Cell struct {
	System   string
	Workload Workload
	Policy   collective.Policy
	// Compute and ExposedComm are the mean per-NPU attributions; Total is
	// the makespan.
	Compute     units.Time
	ExposedComm units.Time
	Total       units.Time
}

// Fig9aResult holds all bars of Fig. 9(a).
type Fig9aResult struct {
	Cells []Cell
}

// Fig9bResult holds all bars of Fig. 9(b).
type Fig9bResult struct {
	Cells []Cell
}

// Cell returns the named measurement.
func findCell(cells []Cell, system string, wl Workload, policy collective.Policy) (Cell, error) {
	for _, c := range cells {
		if c.System == system && c.Workload == wl && c.Policy == policy {
			return c, nil
		}
	}
	return Cell{}, fmt.Errorf("experiments: no cell %s/%s/%v", system, wl, policy)
}

// Cell looks up one bar.
func (r *Fig9aResult) Cell(system string, wl Workload, policy collective.Policy) (Cell, error) {
	return findCell(r.Cells, system, wl, policy)
}

// Cell looks up one bar.
func (r *Fig9bResult) Cell(system string, wl Workload, policy collective.Policy) (Cell, error) {
	return findCell(r.Cells, system, wl, policy)
}

// Options configures an experiment run.
type Options struct {
	// Reduced shrinks layer counts by 8x (preserving per-layer structure
	// and therefore all ratios) for test runs, and limits Fig. 11's
	// design-space sweep to its corner points.
	Reduced bool
	// Exec controls sweep execution: worker count (default GOMAXPROCS)
	// and progress callbacks. Results are deterministic for any worker
	// count. The experiments' cells never repeat a configuration, and the
	// two results that do recur (Fig. 11's baseline bar, the search's
	// promoted candidates) are shared inside their experiment.
	Exec sweep.Exec
}

func (o Options) layersDivisor() int {
	if o.Reduced {
		return 8
	}
	return 1
}

// buildWorkloadTrace generates the trace for a workload on a topology.
func buildWorkloadTrace(top *topology.Topology, wl Workload, o Options) (*et.Trace, error) {
	switch wl {
	case WLAllReduce:
		return etgen.SingleCollective(top, et.CollAllReduce, 1024*units.MB), nil
	case WLDLRM:
		return etgen.DLRMTrace(top, etgen.DLRM())
	case WLGPT3:
		cfg := etgen.GPT3()
		cfg.Layers /= o.layersDivisor()
		return etgen.Transformer(top, cfg)
	case WLT1T:
		cfg := etgen.Transformer1T()
		cfg.Layers /= o.layersDivisor()
		return etgen.Transformer(top, cfg)
	case WLMoE:
		cfg := etgen.MoE1T(false)
		cfg.Layers = max(cfg.Layers/o.layersDivisor(), 1)
		return etgen.MoETrace(top, cfg)
	default:
		return nil, fmt.Errorf("experiments: unknown workload %q", wl)
	}
}

// caseStudyConfig is one job's machine in the case studies: an A100 with
// local HBM, caseStudyChunks chunks, and a one-entry collective log, since
// the studies read only makespans and breakdowns.
func caseStudyConfig(top *topology.Topology, policy collective.Policy) core.Config {
	return core.Config{
		Topology:           top,
		Compute:            compute.A100(),
		Memory:             memory.System{Local: localHBM},
		Policy:             policy,
		Chunks:             caseStudyChunks,
		CollectiveLogLimit: 1,
	}
}

// simulate runs a trace to completion on a fresh simulator.
func simulate(cfg core.Config, trace *et.Trace) (*core.RunStats, error) {
	sim, err := core.NewSimulator(cfg)
	if err != nil {
		return nil, err
	}
	return sim.Run(trace)
}

// runCell executes one (system, workload, policy) simulation.
func runCell(sys System, wl Workload, policy collective.Policy, o Options) (Cell, error) {
	trace, err := buildWorkloadTrace(sys.Top, wl, o)
	if err != nil {
		return Cell{}, fmt.Errorf("%s/%s: %w", sys.Name, wl, err)
	}
	stats, err := simulate(caseStudyConfig(sys.Top, policy), trace)
	if err != nil {
		return Cell{}, fmt.Errorf("%s/%s/%v: %w", sys.Name, wl, policy, err)
	}
	mean := stats.MeanBreakdown()
	return Cell{
		System:      sys.Name,
		Workload:    wl,
		Policy:      policy,
		Compute:     mean.Compute,
		ExposedComm: mean.ExposedComm,
		Total:       stats.Makespan,
	}, nil
}

// caseStudySpec declares a (system x workload x policy) grid over runCell.
func caseStudySpec(name string, systems []System, policies []collective.Policy, o Options) sweep.Spec[Cell] {
	wls := Workloads()
	return sweep.Spec[Cell]{
		Name: name,
		Axes: []sweep.Axis{systemAxis(systems), workloadAxis(), policyAxis(policies)},
		Cell: func(pt sweep.Point) (Cell, error) {
			return runCell(systems[pt.Index("system")], wls[pt.Index("workload")],
				policies[pt.Index("policy")], o)
		},
	}
}

// Fig9a runs the full 6-system x 4-workload x 2-policy grid.
func Fig9a(o Options) (*Fig9aResult, error) {
	spec := caseStudySpec("fig9a", TableII(),
		[]collective.Policy{collective.Baseline, collective.Themis}, o)
	res, err := sweep.Run(spec, o.Exec)
	if err != nil {
		return nil, err
	}
	return &Fig9aResult{Cells: res.Values()}, nil
}

// Fig9b runs the 7-system x 4-workload scaling grid with the baseline
// scheduler (the configuration of the paper's Fig. 9(b)).
func Fig9b(o Options) (*Fig9bResult, error) {
	spec := caseStudySpec("fig9b", ScalingSystems(),
		[]collective.Policy{collective.Baseline}, o)
	res, err := sweep.Run(spec, o.Exec)
	if err != nil {
		return nil, err
	}
	return &Fig9bResult{Cells: res.Values()}, nil
}
