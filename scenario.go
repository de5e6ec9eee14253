package astrasim

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/scenario"
	"repro/internal/units"
)

// This file is the resilience facade: declarative failure/straggler
// scenarios — timed link degradations, link and NPU failures, compute
// stragglers — injected into a workload's run and reported next to the
// clean baseline (internal/scenario). A scenario with no events reproduces
// the clean run byte for byte.

// ScenarioEventSpec is one timed perturbation in a scenario spec.
type ScenarioEventSpec struct {
	// AtUs is when the event applies, in simulated microseconds from the
	// run's start.
	AtUs float64 `json:"at_us"`
	// Kind is one of: degrade_link | restore_link | fail_link | fail_npu
	// | straggle_npu.
	Kind string `json:"kind"`
	// Dim is the topology dimension for link events (0 = innermost).
	Dim int `json:"dim,omitempty"`
	// NPU is the target rank for fail_npu and straggle_npu.
	NPU int `json:"npu,omitempty"`
	// Factor is the bandwidth scale for degrade_link (0 < factor; < 1
	// degrades) or the compute-time multiplier for straggle_npu (> 1
	// slows; 1 clears).
	Factor float64 `json:"factor,omitempty"`
	// RecoveryUs is the outage duration for fail_npu (required) and the
	// optional auto-restore delay for fail_link (0 = permanent).
	RecoveryUs float64 `json:"recovery_us,omitempty"`
}

// ScenarioSpec is a declarative resilience experiment: a machine, a
// workload, and the perturbation schedule applied to the run.
type ScenarioSpec struct {
	Name     string              `json:"name,omitempty"`
	Machine  MachineConfig       `json:"machine"`
	Workload WorkloadSpec        `json:"workload"`
	Events   []ScenarioEventSpec `json:"events"`
}

// scenarioEvents converts spec events into the internal representation,
// rejecting structurally invalid entries (unknown kinds, negative times or
// factors). Machine-relative bounds — dimension and NPU ranges — are
// checked against the concrete machine at run time.
func scenarioEvents(specs []ScenarioEventSpec) ([]scenario.Event, error) {
	var events []scenario.Event
	for i, es := range specs {
		kind, err := scenario.ParseKind(es.Kind)
		if err != nil {
			return nil, fmt.Errorf("astrasim: scenario event %d: %w", i, err)
		}
		if es.AtUs < 0 {
			return nil, fmt.Errorf("astrasim: scenario event %d (%s): negative time %gus", i, es.Kind, es.AtUs)
		}
		if es.RecoveryUs < 0 {
			return nil, fmt.Errorf("astrasim: scenario event %d (%s): negative recovery %gus", i, es.Kind, es.RecoveryUs)
		}
		if es.Factor < 0 {
			return nil, fmt.Errorf("astrasim: scenario event %d (%s): negative factor %g", i, es.Kind, es.Factor)
		}
		if es.Dim < 0 {
			return nil, fmt.Errorf("astrasim: scenario event %d (%s): negative dimension %d", i, es.Kind, es.Dim)
		}
		if es.NPU < 0 {
			return nil, fmt.Errorf("astrasim: scenario event %d (%s): negative NPU %d", i, es.Kind, es.NPU)
		}
		switch kind {
		case scenario.DegradeLink, scenario.StraggleNPU:
			if es.Factor == 0 {
				return nil, fmt.Errorf("astrasim: scenario event %d (%s): factor is required and must be positive", i, es.Kind)
			}
		case scenario.FailNPU:
			if es.RecoveryUs == 0 {
				return nil, fmt.Errorf("astrasim: scenario event %d (fail_npu): recovery_us is required and must be positive", i)
			}
		}
		events = append(events, scenario.Event{
			At:       units.FromMicros(es.AtUs),
			Kind:     kind,
			Dim:      es.Dim,
			NPU:      es.NPU,
			Factor:   es.Factor,
			Recovery: units.FromMicros(es.RecoveryUs),
		})
	}
	return events, nil
}

// buildScenario assembles the internal scenario from a spec; a spec with no
// events yields a named, empty scenario (which perturbs nothing).
func (s ScenarioSpec) buildScenario() (*scenario.Scenario, error) {
	events, err := scenarioEvents(s.Events)
	if err != nil {
		return nil, err
	}
	name := s.Name
	if name == "" {
		name = "scenario"
	}
	return &scenario.Scenario{Name: name, Events: events}, nil
}

// LoadScenarioSpec reads a ScenarioSpec JSON document, rejecting unknown
// fields and structurally invalid events so spec typos fail loudly. Bounds
// that depend on the machine (dimension and NPU ranges) are validated when
// the scenario runs.
func LoadScenarioSpec(r io.Reader) (ScenarioSpec, error) {
	s, err := decodeSpec[ScenarioSpec](r, "scenario")
	if err != nil {
		return s, err
	}
	_, err = s.buildScenario()
	return s, err
}

// ScenarioResult is a completed resilience experiment: the clean baseline,
// the perturbed run, and the headline slowdown.
type ScenarioResult struct {
	Name     string `json:"name,omitempty"`
	Machine  string `json:"machine"`
	Workload string `json:"workload"`
	Events   int    `json:"events"`
	// Clean is the unperturbed baseline run; Perturbed the run under the
	// scenario's events. With zero events the two are byte-identical.
	Clean     *Report `json:"clean"`
	Perturbed *Report `json:"perturbed"`
	// Slowdown is the perturbed makespan over the clean makespan
	// (1.0 = the scenario cost nothing).
	Slowdown float64 `json:"slowdown"`
}

// RunScenarioFile loads a scenario spec from a JSON file and runs it — the
// entry point of the CLI's -scenario flag.
func RunScenarioFile(path string) (*ScenarioResult, error) {
	return runSpecFile(path, LoadScenarioSpec, RunScenario)
}

// RunScenario simulates the spec's workload twice on the same machine —
// clean, then under the perturbation schedule — and reports the slowdown.
// Results are deterministic: same spec, same bytes.
func RunScenario(spec ScenarioSpec) (*ScenarioResult, error) {
	m, err := NewMachine(spec.Machine)
	if err != nil {
		return nil, fmt.Errorf("astrasim: scenario machine: %w", err)
	}
	sc, err := spec.buildScenario()
	if err != nil {
		return nil, err
	}
	if err := sc.Validate(m.top.NumNPUs(), m.top.NumDims()); err != nil {
		return nil, fmt.Errorf("astrasim: %w", err)
	}
	w, err := spec.Workload.Workload()
	if err != nil {
		return nil, err
	}
	clean, err := m.Run(w)
	if err != nil {
		return nil, fmt.Errorf("astrasim: scenario baseline: %w", err)
	}
	perturbed, _, err := m.run(w, false, sc)
	if err != nil {
		return nil, fmt.Errorf("astrasim: scenario run: %w", err)
	}
	res := &ScenarioResult{
		Name:      sc.Name,
		Machine:   m.TopologySpec(),
		Workload:  w.Name(),
		Events:    len(sc.Events),
		Clean:     clean,
		Perturbed: perturbed,
	}
	if clean.Makespan > 0 {
		res.Slowdown = float64(perturbed.Makespan) / float64(clean.Makespan)
	}
	return res, nil
}

// WriteJSON writes the result as an indented JSON document.
func (r *ScenarioResult) WriteJSON(w io.Writer) error { return writeJSON(w, r) }

// WriteTable writes a human-readable clean-vs-perturbed summary.
func (r *ScenarioResult) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "scenario %s: %s on %s, %d events\n\n",
		r.Name, r.Workload, r.Machine, r.Events); err != nil {
		return err
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	if _, err := fmt.Fprintf(w, "%-10s %12s %12s %12s\n", "Run", "Makespan", "Exp.Comm", "Compute"); err != nil {
		return err
	}
	for _, row := range []struct {
		label string
		rep   *Report
	}{{"clean", r.Clean}, {"perturbed", r.Perturbed}} {
		if _, err := fmt.Fprintf(w, "%-10s %10.3fms %10.3fms %10.3fms\n",
			row.label, ms(row.rep.Makespan), ms(row.rep.ExposedComm), ms(row.rep.Compute)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "\nslowdown %.3fx\n", r.Slowdown)
	return err
}

// WriteCSV writes one record per run with the headline metrics in
// microseconds. Deterministic for a given result.
func (r *ScenarioResult) WriteCSV(w io.Writer) error {
	recs := [][]string{{"run", "workload", "machine", "events", "makespan_us", "exposed_comm_us", "compute_us", "slowdown"}}
	for _, row := range []struct {
		label    string
		rep      *Report
		slowdown float64
	}{{"clean", r.Clean, 1}, {"perturbed", r.Perturbed, r.Slowdown}} {
		recs = append(recs, []string{
			row.label, r.Workload, r.Machine, strconv.Itoa(r.Events),
			csvMicros(row.rep.Makespan), csvMicros(row.rep.ExposedComm), csvMicros(row.rep.Compute), csvFloat(row.slowdown),
		})
	}
	return csv.NewWriter(w).WriteAll(recs)
}
