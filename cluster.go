package astrasim

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/et"
	"repro/internal/scenario"
	"repro/internal/topology"
	"repro/internal/units"
)

// This file is the multi-tenancy facade: declarative cluster specs of N
// co-scheduled training jobs space-sharing one hierarchical fabric and
// memory pool, simulated on one shared timeline with runtime fair-sharing
// arbitration (internal/cluster). A single-job cluster reproduces the
// isolated run of the same carved-out machine byte for byte, which makes
// the per-job Slowdown column a well-defined interference metric.

// ClusterJobSpec describes one co-scheduled job (or Count identical ones).
type ClusterJobSpec struct {
	// Name labels the job; replicated jobs get "name#i" suffixes. Defaults
	// to the workload name.
	Name string `json:"name,omitempty"`
	// NPUs is the job's allocation. It must decompose along the fabric's
	// dimensions: inner dimensions whole, optionally times a slice of the
	// next dimension — which must be a switch (any subset of switch ports
	// is a switch; a subset of a ring or torus is not that fabric).
	NPUs int `json:"npus"`
	// Count replicates the job spec (default 1).
	Count int `json:"count,omitempty"`
	// ArrivalUs releases the job's trace at this simulated time.
	ArrivalUs float64 `json:"arrival_us,omitempty"`
	// Workload is the job's training workload, generated for the job's
	// carved-out local topology.
	Workload WorkloadSpec `json:"workload"`
}

// ClusterSpec is a declarative multi-job cluster: a shared fabric machine
// plus the jobs co-scheduled onto it.
type ClusterSpec struct {
	Name string `json:"name,omitempty"`
	// Fabric configures the shared machine: cluster topology, bandwidths,
	// NPU model, scheduler and (pooled) memory system.
	Fabric MachineConfig `json:"fabric"`
	// Placement is the allocation policy: "packed" (default), "strided"
	// or "random".
	Placement string `json:"placement,omitempty"`
	// Seed drives the random placement's shuffle; results are fully
	// reproducible for a fixed seed.
	Seed int64            `json:"seed,omitempty"`
	Jobs []ClusterJobSpec `json:"jobs"`
	// Scenario optionally injects fabric-relative perturbations: link
	// events name fabric dimensions, NPU events name fabric ranks; each
	// event is applied to the jobs it touches. Isolated-baseline runs (the
	// Slowdowns option) stay clean, so the slowdown column then measures
	// interference plus perturbation.
	Scenario []ScenarioEventSpec `json:"scenario,omitempty"`
}

// ClusterPlacements lists the placement policy names.
func ClusterPlacements() []string { return cluster.Placements() }

// LoadClusterSpec reads a ClusterSpec JSON document, rejecting unknown
// fields so spec typos fail loudly.
func LoadClusterSpec(r io.Reader) (ClusterSpec, error) {
	return decodeSpec[ClusterSpec](r, "cluster")
}

// ClusterOptions controls cluster execution.
type ClusterOptions struct {
	// Slowdowns additionally runs each distinct job type in isolation on
	// its carved-out machine and fills the per-job Slowdown column
	// (cluster span / isolated makespan). One extra run per distinct
	// (allocation, workload) pair.
	Slowdowns bool
}

// RunClusterFile loads a cluster spec from a JSON file and simulates it —
// the entry point of the CLIs' -cluster flag.
func RunClusterFile(path string, opt ClusterOptions) (*ClusterResult, error) {
	return runSpecFile(path, LoadClusterSpec, func(s ClusterSpec) (*ClusterResult, error) { return RunCluster(s, opt) })
}

// ClusterJobRow is one job's outcome.
type ClusterJobRow struct {
	Job      string `json:"job"`
	Workload string `json:"workload"`
	NPUs     int    `json:"npus"`
	// Local is the job's carved-out topology in shape notation; FirstRank
	// is the lowest fabric NPU of its allocation.
	Local     string `json:"local"`
	FirstRank int    `json:"first_rank"`
	// Arrival and Finish bound the job's span on the shared timeline.
	Arrival time.Duration `json:"arrival_ns"`
	Finish  time.Duration `json:"finish_ns"`
	// Slowdown is the job's span divided by its isolated makespan on the
	// same carved-out machine (1.0 = no interference); 0 when baselines
	// were not requested.
	Slowdown float64 `json:"slowdown,omitempty"`
	// Report is the job's runtime report; Makespan is the job's own span.
	Report *Report `json:"report"`
}

// ClusterResult is a completed multi-job simulation.
type ClusterResult struct {
	Name      string          `json:"name,omitempty"`
	Fabric    string          `json:"fabric"`
	Placement string          `json:"placement"`
	Seed      int64           `json:"seed,omitempty"`
	Jobs      []ClusterJobRow `json:"jobs"`
	// Makespan is when the last job finished; Events the total discrete
	// events fired across all jobs.
	Makespan time.Duration `json:"makespan_ns"`
	Events   uint64        `json:"events"`
}

// clusterJob is one expanded (replicated) job with its validated workload.
type clusterJob struct {
	spec     ClusterJobSpec
	name     string
	workload Workload
	fp       string // baseline-dedup key: allocation size + workload JSON
}

// expandClusterJobs validates and replicates the job specs.
func expandClusterJobs(specs []ClusterJobSpec) ([]clusterJob, error) {
	var out []clusterJob
	for i, js := range specs {
		if js.Count < 0 {
			return nil, fmt.Errorf("astrasim: cluster job %d: negative count", i)
		}
		if err := checkFinite([]namedFloat{{"arrival_us", js.ArrivalUs}}); err != nil {
			return nil, fmt.Errorf("astrasim: cluster job %d: %w", i, err)
		}
		w, err := js.Workload.Workload()
		if err != nil {
			return nil, fmt.Errorf("astrasim: cluster job %d: %w", i, err)
		}
		wsJSON, err := json.Marshal(js.Workload)
		if err != nil {
			return nil, err
		}
		name := js.Name
		if name == "" {
			name = w.Name()
		}
		count := js.Count
		if count == 0 {
			count = 1
		}
		for c := 0; c < count; c++ {
			j := clusterJob{
				spec: js,
				name: name,
				fp:   fmt.Sprintf("%d|%s", js.NPUs, wsJSON),
			}
			if count > 1 {
				j.name = fmt.Sprintf("%s#%d", name, c)
			}
			// Each replica materializes its own workload so trace
			// generators are never shared.
			j.workload, err = js.Workload.Workload()
			if err != nil {
				return nil, err
			}
			out = append(out, j)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("astrasim: cluster has no jobs")
	}
	return out, nil
}

// clusterConfig assembles the internal cluster config from a validated
// fabric machine and expanded jobs.
func clusterConfig(m *Machine, placement cluster.Placement, seed int64, jobs []clusterJob) cluster.Config {
	cfg := cluster.Config{
		Fabric:                 m.core.Topology,
		Compute:                m.core.Compute,
		Memory:                 m.core.Memory,
		Policy:                 m.core.Policy,
		Chunks:                 m.core.Chunks,
		ModelTransitCongestion: m.core.ModelTransitCongestion,
		Placement:              placement,
		Seed:                   seed,
	}
	for _, j := range jobs {
		w := j.workload
		cfg.Jobs = append(cfg.Jobs, cluster.JobConfig{
			Name:    j.name,
			NPUs:    j.spec.NPUs,
			Arrival: units.FromMicros(j.spec.ArrivalUs),
			Trace:   func(top *topology.Topology) (*et.Trace, error) { return w.trace(top) },
		})
	}
	return cfg
}

// RunCluster simulates the spec's co-scheduled jobs on the shared fabric.
// Results are deterministic: same spec and seed, same bytes. A single-job
// cluster reproduces the isolated run of the job's carved-out machine
// exactly.
func RunCluster(spec ClusterSpec, opt ClusterOptions) (*ClusterResult, error) {
	m, err := NewMachine(spec.Fabric)
	if err != nil {
		return nil, fmt.Errorf("astrasim: cluster fabric: %w", err)
	}
	placement, err := cluster.ParsePlacement(spec.Placement)
	if err != nil {
		return nil, err
	}
	jobs, err := expandClusterJobs(spec.Jobs)
	if err != nil {
		return nil, err
	}
	ccfg := clusterConfig(m, placement, spec.Seed, jobs)
	if len(spec.Scenario) > 0 {
		events, err := scenarioEvents(spec.Scenario)
		if err != nil {
			return nil, err
		}
		name := spec.Name
		if name == "" {
			name = "cluster"
		}
		ccfg.Scenario = &scenario.Scenario{Name: name, Events: events}
	}
	res, err := cluster.Run(ccfg)
	if err != nil {
		return nil, err
	}

	// Isolated baselines: one single-job cluster per distinct job type on
	// the same fabric — byte-identical to the job's isolated machine run.
	baselines := map[string]time.Duration{}
	if opt.Slowdowns {
		for _, j := range jobs {
			if _, ok := baselines[j.fp]; ok {
				continue
			}
			solo, err := expandClusterJobs([]ClusterJobSpec{{
				Name: j.name, NPUs: j.spec.NPUs, Workload: j.spec.Workload,
			}})
			if err != nil {
				return nil, err
			}
			iso, err := cluster.Run(clusterConfig(m, cluster.Packed, spec.Seed, solo))
			if err != nil {
				return nil, fmt.Errorf("astrasim: isolated baseline for %s: %w", j.name, err)
			}
			baselines[j.fp] = toDuration(iso.Jobs[0].Stats.Makespan)
		}
	}

	out := &ClusterResult{
		Name:      spec.Name,
		Fabric:    m.TopologySpec(),
		Placement: placement.String(),
		Seed:      spec.Seed,
		Makespan:  toDuration(res.Makespan),
		Events:    res.Events,
	}
	for i, jr := range res.Jobs {
		row := ClusterJobRow{
			Job:       jr.Name,
			Workload:  jobs[i].workload.Name(),
			NPUs:      jr.NPUs,
			Local:     jr.Local.String(),
			FirstRank: jr.Ranks[0],
			Arrival:   toDuration(jr.Arrival),
			Finish:    toDuration(jr.Finish),
			Report:    reportFromStats(jobs[i].workload.Name(), jr.Stats),
		}
		if iso := baselines[jobs[i].fp]; iso > 0 {
			row.Slowdown = float64(row.Report.Makespan) / float64(iso)
		}
		out.Jobs = append(out.Jobs, row)
	}
	return out, nil
}

// WriteJSON writes the result as an indented JSON document.
func (r *ClusterResult) WriteJSON(w io.Writer) error { return writeJSON(w, r) }

// WriteTable writes a human-readable per-job summary.
func (r *ClusterResult) WriteTable(w io.Writer) error {
	name := r.Name
	if name == "" {
		name = "cluster"
	}
	if _, err := fmt.Fprintf(w, "cluster %s: fabric %s, %d jobs, %s placement\n",
		name, r.Fabric, len(r.Jobs), r.Placement); err != nil {
		return err
	}
	jobW, localW := len("Job"), len("Local")
	for _, row := range r.Jobs {
		if len(row.Job) > jobW {
			jobW = len(row.Job)
		}
		if len(row.Local) > localW {
			localW = len(row.Local)
		}
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	if _, err := fmt.Fprintf(w, "%-*s %-*s %6s %6s %12s %12s %9s\n",
		jobW, "Job", localW, "Local", "NPUs", "@rank", "Makespan", "Exp.Comm", "Slowdown"); err != nil {
		return err
	}
	for _, row := range r.Jobs {
		slow := "-"
		if row.Slowdown > 0 {
			slow = fmt.Sprintf("%.3fx", row.Slowdown)
		}
		if _, err := fmt.Fprintf(w, "%-*s %-*s %6d %6d %10.3fms %10.3fms %9s\n",
			jobW, row.Job, localW, row.Local, row.NPUs, row.FirstRank,
			ms(row.Report.Makespan), ms(row.Report.ExposedComm), slow); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "\ncluster makespan %v, %d events\n",
		r.Makespan, r.Events)
	return err
}

// WriteCSV writes one record per job with the headline metrics in
// microseconds. Deterministic for a given result.
func (r *ClusterResult) WriteCSV(w io.Writer) error {
	recs := [][]string{{"job", "workload", "npus", "local", "first_rank", "arrival_us", "finish_us", "makespan_us", "exposed_comm_us", "exposed_remote_mem_us", "slowdown"}}
	for _, row := range r.Jobs {
		recs = append(recs, []string{
			row.Job, row.Workload, strconv.Itoa(row.NPUs), row.Local, strconv.Itoa(row.FirstRank),
			csvMicros(row.Arrival), csvMicros(row.Finish), csvMicros(row.Report.Makespan),
			csvMicros(row.Report.ExposedComm), csvMicros(row.Report.ExposedRemoteMem), csvFloat(row.Slowdown),
		})
	}
	return csv.NewWriter(w).WriteAll(recs)
}
