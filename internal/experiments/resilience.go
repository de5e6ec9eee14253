package experiments

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/units"
)

// Resilience — the failure/straggler case study. Two 128-NPU fabrics run
// GPT-3 and DLRM under injected infrastructure perturbations, and each cell
// reports the perturbed makespan against the same machine's clean run:
//
//	SW-Flat     SW(8)_SW(16)      fully-provisioned spine
//	Torus-Pods  T2D(4,4)_SW(8,4)  torus pods under a spine switch
//
// The scenario axis picks apart the failure modes the scenario layer
// models:
//
//	clean        zero events — locks in that an empty scenario is
//	             byte-identical to the unperturbed run (slowdown exactly 1)
//	degrade      the spine dimension drops to 25% bandwidth halfway through
//	             the clean run and stays degraded
//	straggle-1%  1% of NPUs run compute 1.3x slower from the start
//	straggle-5%  5% of NPUs run compute 1.3x slower from the start
//
// The headline property: slowdown is exactly 1.0 for the clean scenario,
// and otherwise reflects how much of the workload the perturbed resource
// carries — DLRM's All-to-All leans on the spine harder than GPT-3's
// hierarchical All-Reduce, while synchronous collectives gate every job on
// its slowest member, so even 1% stragglers tax the whole machine.

// Resilience scenario names.
const (
	ScenClean     = "clean"
	ScenDegrade   = "degrade"
	ScenStraggle1 = "straggle-1pct"
	ScenStraggle5 = "straggle-5pct"
)

// ResilienceScenarios lists the study's scenario axis.
func ResilienceScenarios() []string {
	return []string{ScenClean, ScenDegrade, ScenStraggle1, ScenStraggle5}
}

// ResilienceWorkloads lists the study's workloads.
func ResilienceWorkloads() []Workload { return []Workload{WLGPT3, WLDLRM} }

// resilienceFabrics returns the study's two cluster fabrics.
func resilienceFabrics() []System {
	return buildFabrics([]fabricSpec{
		{"SW-Flat", "SW(8)_SW(16)", []float64{250, 250}},
		{"Torus-Pods", "T2D(4,4)_SW(8,4)", []float64{500, 250}},
	}...)
}

// straggleFactor is the compute-time multiplier of a straggling NPU —
// thermal throttling territory, not a hang.
const straggleFactor = 1.3

// resilienceEvents builds a named scenario's event list for a machine.
// cleanMakespan anchors the mid-run degradation; straggler ranks are spread
// evenly across the machine so every leaf group feels one.
func resilienceEvents(name string, top *topology.Topology, cleanMakespan units.Time) ([]scenario.Event, error) {
	stragglers := func(pct int) []scenario.Event {
		npus := top.NumNPUs()
		count := npus * pct / 100
		if count < 1 {
			count = 1
		}
		events := make([]scenario.Event, 0, count)
		for i := 0; i < count; i++ {
			events = append(events, scenario.Event{
				Kind: scenario.StraggleNPU, NPU: i * npus / count, Factor: straggleFactor,
			})
		}
		return events
	}
	switch name {
	case ScenClean:
		return nil, nil
	case ScenDegrade:
		return []scenario.Event{{
			Kind: scenario.DegradeLink, At: cleanMakespan / 2,
			Dim: top.NumDims() - 1, Factor: 0.25,
		}}, nil
	case ScenStraggle1:
		return stragglers(1), nil
	case ScenStraggle5:
		return stragglers(5), nil
	default:
		return nil, fmt.Errorf("resilience: unknown scenario %q", name)
	}
}

// ResilienceCell is one (fabric, workload, scenario) measurement.
type ResilienceCell struct {
	Fabric   string
	Workload Workload
	Scenario string
	// Clean is the unperturbed makespan; Perturbed the makespan under the
	// scenario's events (equal for the clean scenario, which runs with an
	// empty — but attached — scenario to lock in zero-event byte-identity).
	Clean     units.Time
	Perturbed units.Time
	// Slowdown is Perturbed/Clean (1.0 = the scenario cost nothing).
	Slowdown float64
}

// ResilienceResult holds the study grid.
type ResilienceResult struct {
	Cells []ResilienceCell
}

// Cell looks up one measurement.
func (r *ResilienceResult) Cell(fabric string, wl Workload, scen string) (ResilienceCell, error) {
	for _, c := range r.Cells {
		if c.Fabric == fabric && c.Workload == wl && c.Scenario == scen {
			return c, nil
		}
	}
	return ResilienceCell{}, fmt.Errorf("resilience: no cell %s/%s/%s", fabric, wl, scen)
}

// runResilienceCell simulates one workload clean and under a scenario.
func runResilienceCell(sys System, wl Workload, scen string, o Options) (ResilienceCell, error) {
	run := func(sc *scenario.Scenario) (units.Time, error) {
		trace, err := buildWorkloadTrace(sys.Top, wl, o)
		if err != nil {
			return 0, err
		}
		cfg := caseStudyConfig(sys.Top, collective.Baseline)
		cfg.Scenario = sc
		stats, err := simulate(cfg, trace)
		if err != nil {
			return 0, err
		}
		return stats.Makespan, nil
	}
	clean, err := run(nil)
	if err != nil {
		return ResilienceCell{}, fmt.Errorf("%s/%s clean: %w", sys.Name, wl, err)
	}
	events, err := resilienceEvents(scen, sys.Top, clean)
	if err != nil {
		return ResilienceCell{}, err
	}
	// The clean scenario still runs with an attached (empty) scenario: the
	// cell's slowdown of exactly 1.0 is the study's built-in regression
	// check that a zero-event scenario is byte-identical to no scenario.
	perturbed, err := run(&scenario.Scenario{Name: scen, Events: events})
	if err != nil {
		return ResilienceCell{}, fmt.Errorf("%s/%s/%s: %w", sys.Name, wl, scen, err)
	}
	return ResilienceCell{
		Fabric:    sys.Name,
		Workload:  wl,
		Scenario:  scen,
		Clean:     clean,
		Perturbed: perturbed,
		Slowdown:  float64(perturbed) / float64(clean),
	}, nil
}

// Resilience runs the fabric x workload x scenario grid on the sweep
// engine.
func Resilience(o Options) (*ResilienceResult, error) {
	systems := resilienceFabrics()
	wls := ResilienceWorkloads()
	scens := ResilienceScenarios()
	wlNames := make([]string, len(wls))
	for i, wl := range wls {
		wlNames[i] = string(wl)
	}
	spec := sweep.Spec[ResilienceCell]{
		Name: "resilience",
		Axes: []sweep.Axis{
			systemAxis(systems),
			{Name: "workload", Values: wlNames},
			{Name: "scenario", Values: scens},
		},
		Cell: func(pt sweep.Point) (ResilienceCell, error) {
			return runResilienceCell(systems[pt.Index("system")], wls[pt.Index("workload")],
				scens[pt.Index("scenario")], o)
		},
	}
	res, err := sweep.Run(spec, o.Exec)
	if err != nil {
		return nil, err
	}
	return &ResilienceResult{Cells: res.Values()}, nil
}
