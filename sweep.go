package astrasim

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"repro/internal/convert"
	"repro/internal/et"
	"repro/internal/sweep"
	"repro/internal/topology"
)

// This file is the design-space-exploration facade: declarative sweep
// grids of machines x workloads, executed in parallel with deterministic
// output and fingerprint-keyed result sharing. It is the public face of
// internal/sweep, which also drives every reproduced paper artifact.

// WorkloadSpec is a declarative, JSON-serializable workload description —
// the sweep-grid counterpart of the Workload constructors.
type WorkloadSpec struct {
	// Kind selects the workload: all_reduce | all_gather | reduce_scatter
	// | all_to_all | gpt3 | t1t | dlrm | moe | moe_inswitch | transformer
	// | fsdp | threed | pipeline | trace | pytorch_trace.
	Kind string `json:"kind"`
	// SizeBytes is the collective payload (collective kinds; default 1 GB).
	SizeBytes int64 `json:"size_bytes,omitempty"`
	// Path locates the trace file (trace kinds).
	Path string `json:"path,omitempty"`

	// Transformer-family parameters (transformer, fsdp, threed).
	Params       float64 `json:"params,omitempty"`
	Layers       int     `json:"layers,omitempty"`
	Hidden       int     `json:"hidden,omitempty"`
	SeqLen       int     `json:"seq_len,omitempty"`
	MicroBatch   int     `json:"micro_batch,omitempty"`
	BytesPerElem int     `json:"bytes_per_elem,omitempty"`
	MP           int     `json:"mp,omitempty"`

	// Pipeline-family parameters (pipeline, threed).
	Stages          int     `json:"stages,omitempty"`
	MicroBatches    int     `json:"micro_batches,omitempty"`
	FlopsPerStage   float64 `json:"flops_per_stage,omitempty"`
	ActivationBytes int64   `json:"activation_bytes,omitempty"`
	GradBytes       int64   `json:"grad_bytes,omitempty"`

	// Iterations > 1 repeats the workload with synchronous iteration
	// boundaries; 0 and 1 run it once, and a negative count is an error.
	Iterations int `json:"iterations,omitempty"`
}

// Workload materializes the description. Trace kinds re-open the file
// each time the trace is generated, so one spec can serve many sweep
// cells.
func (s WorkloadSpec) Workload() (Workload, error) {
	if s.Iterations < 0 {
		return nil, fmt.Errorf("astrasim: workload kind %q has a negative iteration count %d", s.Kind, s.Iterations)
	}
	size := s.SizeBytes
	if size == 0 {
		size = 1 << 30
	}
	var w Workload
	switch s.Kind {
	case "all_reduce", "all_gather", "reduce_scatter", "all_to_all":
		w = Collective(s.Kind, size)
	case "gpt3":
		w = GPT3()
	case "t1t":
		w = Transformer1T()
	case "dlrm":
		w = DLRM()
	case "moe":
		w = MoE1T(false)
	case "moe_inswitch":
		w = MoE1T(true)
	case "transformer":
		w = Transformer(s.Params, s.Layers, s.Hidden, s.SeqLen, s.MicroBatch, s.BytesPerElem, s.MP)
	case "fsdp":
		w = FSDP(s.Params, s.Layers, s.Hidden, s.SeqLen, s.MicroBatch, s.BytesPerElem)
	case "threed":
		w = ThreeD(s.Params, s.Layers, s.Hidden, s.SeqLen, s.MicroBatch, s.BytesPerElem, s.MP, s.Stages, s.MicroBatches)
	case "pipeline":
		w = Pipeline(s.Stages, s.MicroBatches, s.FlopsPerStage, s.ActivationBytes, s.GradBytes)
	case "trace", "pytorch_trace":
		if s.Path == "" {
			return nil, fmt.Errorf("astrasim: workload kind %q needs a path", s.Kind)
		}
		path, pytorch := s.Path, s.Kind == "pytorch_trace"
		name := fmt.Sprintf("Trace(%s)", path)
		w = workloadFunc{name: name, fn: func(*topology.Topology) (*et.Trace, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			if pytorch {
				src, err := convert.DecodePyTorch(f)
				if err != nil {
					return nil, err
				}
				return convert.Convert(src)
			}
			return et.Decode(f)
		}}
	default:
		return nil, fmt.Errorf("astrasim: unknown workload kind %q", s.Kind)
	}
	if s.Iterations > 1 {
		w = Iterations(w, s.Iterations)
	}
	return w, nil
}

// label names the workload in sweep rows.
func (s WorkloadSpec) label() string {
	w, err := s.Workload()
	if err != nil {
		return s.Kind
	}
	return w.Name()
}

// workloadTable validates every workload spec up front (so grid errors
// name the workload, not a mid-run cell) and returns the display names
// and canonical JSON fingerprints sweeps and searches key their caches
// on.
func workloadTable(specs []WorkloadSpec) (names, fps []string, err error) {
	names = make([]string, len(specs))
	fps = make([]string, len(specs))
	for i, ws := range specs {
		if _, err := ws.Workload(); err != nil {
			return nil, nil, fmt.Errorf("workload %d: %w", i, err)
		}
		names[i] = ws.label()
		wsJSON, err := json.Marshal(ws)
		if err != nil {
			return nil, nil, err
		}
		fps[i] = string(wsJSON)
	}
	return names, fps, nil
}

// SweepMachine is one named machine of a sweep grid.
type SweepMachine struct {
	// Name labels the machine in results; it defaults to the topology
	// notation.
	Name   string        `json:"name,omitempty"`
	Config MachineConfig `json:"config"`
}

// SweepSpec is a declarative sweep grid: every machine runs every
// workload.
type SweepSpec struct {
	Name      string         `json:"name,omitempty"`
	Machines  []SweepMachine `json:"machines"`
	Workloads []WorkloadSpec `json:"workloads"`
}

// LoadSweepSpec reads a SweepSpec JSON document, rejecting unknown fields
// so grid typos fail loudly.
func LoadSweepSpec(r io.Reader) (SweepSpec, error) {
	return decodeSpec[SweepSpec](r, "sweep")
}

// LoadMachineConfig reads one MachineConfig JSON document, the format of
// the astrasim CLI's -config file. Unknown fields and data after the
// document are errors, as in every spec loader.
func LoadMachineConfig(r io.Reader) (MachineConfig, error) {
	return decodeSpec[MachineConfig](r, "machine")
}

// decodeSpec reads one JSON spec document of the named kind, rejecting
// unknown fields and anything but whitespace after the document — the
// shared body of the Load*Spec functions.
func decodeSpec[S any](r io.Reader, kind string) (S, error) {
	var s S
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("astrasim: parse %s spec: %w", kind, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return s, fmt.Errorf("astrasim: parse %s spec: data after the spec document", kind)
	}
	return s, nil
}

// SweepOptions controls sweep execution.
type SweepOptions struct {
	// Workers is the parallel worker count; <= 0 means GOMAXPROCS.
	// Results are identical for any value.
	Workers int
	// Progress, when non-nil, is called as cells complete.
	Progress func(done, total int)
}

// RunSweepFile loads a sweep spec from a JSON file and runs it — the
// shared entry point of the CLIs' -sweep flag.
func RunSweepFile(path string, opt SweepOptions) (*SweepResult, error) {
	return runSpecFile(path, LoadSweepSpec, func(s SweepSpec) (*SweepResult, error) { return RunSweep(s, opt) })
}

// writeJSON writes v as an indented JSON document — the body of every
// result's WriteJSON.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// runSpecFile loads a spec from a JSON file and runs it — the shared body
// of the Run*File functions.
func runSpecFile[S, R any](path string, load func(io.Reader) (S, error), run func(S) (*R, error)) (*R, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	spec, err := load(f)
	if err != nil {
		return nil, err
	}
	return run(spec)
}

// ProgressLine returns a Progress callback rendering an in-place
// "done/total" counter to w, ending with a newline on completion.
func ProgressLine(w io.Writer) func(done, total int) {
	return func(done, total int) {
		fmt.Fprintf(w, "\rsweep: %d/%d cells", done, total)
		if done == total {
			fmt.Fprintln(w)
		}
	}
}

// SweepRow is one simulated cell.
type SweepRow struct {
	Machine  string  `json:"machine"`
	Workload string  `json:"workload"`
	Report   *Report `json:"report"`
}

// SweepResult holds a completed sweep in deterministic (machine-major)
// order.
type SweepResult struct {
	Name string     `json:"name,omitempty"`
	Rows []SweepRow `json:"rows"`
	// Cells is the grid size; Executed counts simulations actually run —
	// cells with identical machine + workload content share one run.
	Cells    int `json:"cells"`
	Executed int `json:"executed"`
	// Wall is the sweep's wall-clock duration.
	Wall time.Duration `json:"wall_ns"`
}

// RunSweep simulates every machine x workload cell of the grid across a
// worker pool. Output order and content are independent of the worker
// count; duplicate cells (same machine config and workload description)
// are simulated once.
func RunSweep(spec SweepSpec, opt SweepOptions) (*SweepResult, error) {
	if len(spec.Machines) == 0 {
		return nil, fmt.Errorf("astrasim: sweep %q has no machines", spec.Name)
	}
	if len(spec.Workloads) == 0 {
		return nil, fmt.Errorf("astrasim: sweep %q has no workloads", spec.Name)
	}

	// Build and validate every machine up front so configuration errors
	// name the machine rather than a mid-sweep cell.
	machines := make([]*Machine, len(spec.Machines))
	machineNames := make([]string, len(spec.Machines))
	machineFPs := make([]string, len(spec.Machines))
	for i, sm := range spec.Machines {
		m, err := NewMachine(sm.Config)
		if err != nil {
			return nil, fmt.Errorf("astrasim: sweep machine %d (%s): %w", i, sm.Name, err)
		}
		machines[i] = m
		machineNames[i] = sm.Name
		if machineNames[i] == "" {
			machineNames[i] = m.TopologySpec()
		}
		cfgJSON, err := json.Marshal(sm.Config)
		if err != nil {
			return nil, err
		}
		machineFPs[i] = string(cfgJSON)
	}
	name := spec.Name
	if name == "" {
		name = "sweep"
	}
	workloadNames, workloadFPs, err := workloadTable(spec.Workloads)
	if err != nil {
		return nil, fmt.Errorf("astrasim: sweep %s: %w", name, err)
	}
	inner := sweep.Spec[*Report]{
		Name: name,
		Axes: []sweep.Axis{
			{Name: "machine", Values: machineNames},
			{Name: "workload", Values: workloadNames},
		},
		Cell: func(pt sweep.Point) (*Report, error) {
			m := machines[pt.Index("machine")]
			// Each cell materializes its own workload so trace readers and
			// generators are never shared between goroutines.
			w, err := spec.Workloads[pt.Index("workload")].Workload()
			if err != nil {
				return nil, err
			}
			return m.Run(w)
		},
		Fingerprint: func(pt sweep.Point) string {
			return "astrasim|" + machineFPs[pt.Index("machine")] + "|" + workloadFPs[pt.Index("workload")]
		},
	}
	res, err := sweep.Run(inner, sweep.Exec{
		Workers:  opt.Workers,
		Cache:    sweep.NewCache(),
		Progress: opt.Progress,
	})
	if err != nil {
		return nil, err
	}
	out := &SweepResult{
		Name:     spec.Name,
		Cells:    res.Stats.Cells,
		Executed: res.Stats.Executed,
		Wall:     res.Stats.Wall,
	}
	for _, row := range res.Rows {
		out.Rows = append(out.Rows, SweepRow{
			Machine:  row.Point[0],
			Workload: row.Point[1],
			Report:   row.Value,
		})
	}
	return out, nil
}

// WriteJSON writes the result as an indented JSON document.
func (r *SweepResult) WriteJSON(w io.Writer) error { return writeJSON(w, r) }

// WriteTable writes a human-readable summary table.
func (r *SweepResult) WriteTable(w io.Writer) error {
	machineW, workloadW := len("Machine"), len("Workload")
	for _, row := range r.Rows {
		if len(row.Machine) > machineW {
			machineW = len(row.Machine)
		}
		if len(row.Workload) > workloadW {
			workloadW = len(row.Workload)
		}
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	if _, err := fmt.Fprintf(w, "%-*s %-*s %12s %12s %12s %12s\n",
		machineW, "Machine", workloadW, "Workload", "Makespan", "Compute", "Exp.Comm", "Idle"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		rep := row.Report
		if _, err := fmt.Fprintf(w, "%-*s %-*s %10.3fms %10.3fms %10.3fms %10.3fms\n",
			machineW, row.Machine, workloadW, row.Workload,
			ms(rep.Makespan), ms(rep.Compute), ms(rep.ExposedComm), ms(rep.Idle)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "\n%d cells, %d simulated (%d shared), wall %v\n",
		r.Cells, r.Executed, r.Cells-r.Executed, r.Wall.Round(time.Millisecond))
	return err
}

// WriteCSV writes one row per cell with the report's headline metrics in
// microseconds. Deterministic for a given result.
func (r *SweepResult) WriteCSV(w io.Writer) error {
	recs := [][]string{{"machine", "workload", "makespan_us", "compute_us", "exposed_comm_us", "exposed_remote_mem_us", "exposed_local_mem_us", "idle_us", "collectives", "events"}}
	for _, row := range r.Rows {
		rep := row.Report
		recs = append(recs, []string{
			row.Machine, row.Workload,
			csvMicros(rep.Makespan), csvMicros(rep.Compute), csvMicros(rep.ExposedComm),
			csvMicros(rep.ExposedRemoteMem), csvMicros(rep.ExposedLocalMem), csvMicros(rep.Idle),
			strconv.Itoa(rep.Collectives), strconv.FormatUint(rep.Events, 10),
		})
	}
	return csv.NewWriter(w).WriteAll(recs)
}

// csvFloat formats x as %g does; csvMicros formats d in microseconds.
func csvFloat(x float64) string        { return strconv.FormatFloat(x, 'g', -1, 64) }
func csvMicros(d time.Duration) string { return csvFloat(float64(d) / float64(time.Microsecond)) }
