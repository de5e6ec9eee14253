package astrasim

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/search"
	"repro/internal/sweep"
)

// This file is the design-space optimization facade: a declarative search
// over candidate machines x workloads that finds the best design under a
// simulation budget. It is the public face of internal/search — the
// multi-fidelity engine that screens candidates with the closed-form
// collective estimator and promotes only the survivors to full
// event-engine simulation, all through the sweep worker pool with
// deterministic, worker-count-independent results.

// SearchSpec is a declarative design-space search: candidate machines (an
// explicit list, a topologies x bandwidths cross product, or both), the
// workloads to optimize over, and the strategy plus its budget. The
// candidate space is the machines x workloads cross product; the
// objective is minimized over it.
type SearchSpec struct {
	Name string `json:"name,omitempty"`
	// Strategy selects the optimizer: exhaustive | random | halving
	// (default halving — estimate-screen everything, simulate the top
	// 1/eta survivors).
	Strategy string `json:"strategy,omitempty"`
	// Seed drives every stochastic choice; results are fully reproducible
	// for a fixed seed at any worker count.
	Seed int64 `json:"seed,omitempty"`
	// MaxSimulations bounds full event-engine runs; 0 means
	// ceil(feasible/eta) — with multiple workloads (and no explicit
	// Population), rounded so whole machines are promoted: the screening
	// estimate is machine-level, so a budget cutting through a machine's
	// workload block would select workloads by candidate order, not
	// merit. Exhaustive ignores it.
	MaxSimulations int `json:"max_simulations,omitempty"`
	// Population is the random strategy's sample size (0 = eta *
	// MaxSimulations).
	Population int `json:"population,omitempty"`
	// Eta is the promotion ratio (default 4).
	Eta int `json:"eta,omitempty"`
	// Objective selects what to minimize: "makespan" (default) or "comm"
	// (exposed communication time).
	Objective string `json:"objective,omitempty"`
	// MaxAggregateGBps, when > 0, prunes machines whose configured
	// per-NPU network bandwidth (the sum of BandwidthsGBps — what the
	// fabric provisions, before oversubscription or embedding derating)
	// exceeds the budget — search under a cost cap.
	MaxAggregateGBps float64 `json:"max_aggregate_gbps,omitempty"`
	// ProxyOp and ProxySizeBytes configure the closed-form screening
	// estimate (default: a 1 GiB all_reduce).
	ProxyOp        string `json:"proxy_op,omitempty"`
	ProxySizeBytes int64  `json:"proxy_size_bytes,omitempty"`

	// Base seeds every generated machine's non-topology fields (scheduler,
	// TFLOPS, chunks, memory); Topology and BandwidthsGBps are overridden
	// per candidate.
	Base MachineConfig `json:"base,omitempty"`
	// Machines are explicit candidates, evaluated before the generated
	// ones.
	Machines []SweepMachine `json:"machines,omitempty"`
	// Topologies x Bandwidths generates candidates: every shape notation
	// paired with every per-dimension bandwidth vector. Pairs whose vector
	// length does not match the topology's dimension count are infeasible
	// and recorded as pruned, not errors — heterogeneous spaces are the
	// point.
	Topologies []string    `json:"topologies,omitempty"`
	Bandwidths [][]float64 `json:"bandwidths,omitempty"`

	// Workloads to optimize over; each machine candidate is paired with
	// each workload. Ignored in cluster mode.
	Workloads []WorkloadSpec `json:"workloads"`

	// Cluster, when non-nil, switches the search to multi-tenant mode:
	// every machine candidate is a shared cluster fabric, the placement
	// policies become a second search axis, and each evaluation
	// co-simulates the cluster's jobs (RunCluster) instead of a single
	// workload.
	Cluster *ClusterSearchSpec `json:"cluster,omitempty"`
}

// ClusterSearchSpec configures a cluster-mode search: the co-scheduled
// jobs every fabric candidate must host, and the placement policies to
// optimize over.
type ClusterSearchSpec struct {
	Jobs []ClusterJobSpec `json:"jobs"`
	// Placements lists the policies to search (default: all registered).
	Placements []string `json:"placements,omitempty"`
	// Seed drives the random placement's shuffle.
	Seed int64 `json:"seed,omitempty"`
}

// LoadSearchSpec reads a SearchSpec JSON document, rejecting unknown
// fields so spec typos fail loudly.
func LoadSearchSpec(r io.Reader) (SearchSpec, error) {
	return decodeSpec[SearchSpec](r, "search")
}

// SearchOptions controls search execution.
type SearchOptions struct {
	// Workers is the parallel worker count; <= 0 means GOMAXPROCS.
	// Results are identical for any value.
	Workers int
	// Progress, when non-nil, is called as evaluations complete (per
	// evaluation batch).
	Progress func(done, total int)
}

// RunSearchFile loads a search spec from a JSON file and optimizes it —
// the shared entry point of the CLIs' -optimize flag.
func RunSearchFile(path string, opt SearchOptions) (*SearchResult, error) {
	return runSpecFile(path, LoadSearchSpec, func(s SearchSpec) (*SearchResult, error) { return Optimize(s, opt) })
}

// SearchEval is one scored candidate: (machine, workload) in single-job
// searches, (fabric, placement) in cluster mode.
type SearchEval struct {
	Machine  string `json:"machine"`
	Workload string `json:"workload"`
	// Placement is the cluster-mode placement policy (empty otherwise).
	Placement string `json:"placement,omitempty"`
	// Score is the fidelity's value as a duration: the closed-form proxy
	// estimate on screening rungs, the simulated objective on full rungs.
	Score time.Duration `json:"score_ns"`
	// Promoted marks candidates advanced to the next rung.
	Promoted bool `json:"promoted,omitempty"`
}

// SearchGeneration is one rung of the search history.
type SearchGeneration struct {
	Index    int          `json:"index"`
	Fidelity string       `json:"fidelity"`
	Evals    []SearchEval `json:"evals"`
}

// SearchPruned records one infeasible candidate.
type SearchPruned struct {
	Machine   string `json:"machine"`
	Workload  string `json:"workload,omitempty"`
	Placement string `json:"placement,omitempty"`
	Reason    string `json:"reason"`
}

// SearchResult holds a completed search. Everything but Wall is
// deterministic for a fixed spec: identical winner and history at any
// worker count (Wall is therefore excluded from the JSON form).
type SearchResult struct {
	Name       string `json:"name,omitempty"`
	Strategy   string `json:"strategy"`
	Seed       int64  `json:"seed"`
	Objective  string `json:"objective"`
	Candidates int    `json:"candidates"`
	Feasible   int    `json:"feasible"`
	// Estimates and Simulations count candidate evaluations at each
	// fidelity; Simulations/Feasible is the fraction of the space that ran
	// the full event engine.
	Estimates   int `json:"estimates"`
	Simulations int `json:"simulations"`
	// Best is the winner: the lowest full-fidelity objective.
	Best    SearchEval         `json:"best"`
	History []SearchGeneration `json:"history"`
	Pruned  []SearchPruned     `json:"pruned,omitempty"`
	// Wall is the search's wall-clock duration.
	Wall time.Duration `json:"-"`
}

// SearchStrategies lists the accepted strategy names and aliases, sorted —
// for CLI help.
func SearchStrategies() []string { return search.Strategies() }

// searchCandidates is the enumerated machine axis of a search space.
type searchCandidates struct {
	names   []string
	mach    []*Machine // nil when infeasible
	reasons []string   // non-empty when infeasible
}

// buildSearchMachines enumerates explicit then generated machine
// candidates, building each up front; construction failures become
// pruning reasons rather than errors so heterogeneous topology x
// bandwidth grids work naturally. A NaN or infinite number is a broken
// spec, not an infeasible design, and fails the search.
func buildSearchMachines(spec SearchSpec) (*searchCandidates, error) {
	type cand struct {
		name string
		cfg  MachineConfig
	}
	var cands []cand
	for _, sm := range spec.Machines {
		cands = append(cands, cand{name: sm.Name, cfg: sm.Config})
	}
	for _, topo := range spec.Topologies {
		for _, bw := range spec.Bandwidths {
			cfg := spec.Base
			cfg.Topology = topo
			cfg.BandwidthsGBps = bw
			parts := make([]string, len(bw))
			for i, v := range bw {
				parts[i] = sweep.FormatFloat(v)
			}
			name := fmt.Sprintf("%s @ %s GB/s", topo, strings.Join(parts, ","))
			cands = append(cands, cand{name: name, cfg: cfg})
		}
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("astrasim: search %q has no machine candidates", spec.Name)
	}
	out := &searchCandidates{
		names:   make([]string, len(cands)),
		mach:    make([]*Machine, len(cands)),
		reasons: make([]string, len(cands)),
	}
	for i, c := range cands {
		out.names[i] = c.name
		if out.names[i] == "" {
			out.names[i] = c.cfg.Topology
		}
		if err := c.cfg.checkFloats(); err != nil {
			return nil, fmt.Errorf("astrasim: search machine %d (%s): %w", i, out.names[i], err)
		}
		// The cost cap depends only on the configured bandwidths; apply it
		// before paying for machine construction.
		if spec.MaxAggregateGBps > 0 {
			var provisioned float64
			for _, v := range c.cfg.BandwidthsGBps {
				provisioned += v
			}
			if provisioned > spec.MaxAggregateGBps {
				out.reasons[i] = fmt.Sprintf("configured bandwidth %g GB/s exceeds budget %g GB/s",
					provisioned, spec.MaxAggregateGBps)
				continue
			}
		}
		m, err := NewMachine(c.cfg)
		if err != nil {
			out.reasons[i] = err.Error()
			continue
		}
		if c.name == "" {
			out.names[i] = m.TopologySpec()
		}
		out.mach[i] = m
	}
	return out, nil
}

// searchAxis is a search space's second axis: the spec's workloads, or in
// cluster mode its placement policies over the spec's co-scheduled jobs.
// Building it is the only step of Optimize that depends on the mode.
type searchAxis struct {
	// name is the problem name when the spec gives none.
	name   string
	values []axisValue
	// feasible, when non-nil, reports why value j cannot run on m.
	feasible func(m *Machine, j int) error
	// simulate runs value j on m, returning the makespan and the exposed
	// communication time the objectives read.
	simulate func(m *Machine, j int) (makespan, comm time.Duration, err error)
}

// axisValue is one value of the second axis.
type axisValue struct {
	label string // candidate label suffix
	// eval and pruned carry the value's Workload and Placement columns for
	// evaluated and pruned candidates.
	eval   SearchEval
	pruned SearchPruned
}

// buildSearchAxis validates the spec's second axis up front, so a bad
// workload, job or placement fails the search before anything runs.
func buildSearchAxis(spec SearchSpec) (*searchAxis, error) {
	if spec.Cluster != nil {
		return buildPlacementAxis(spec.Name, spec.Cluster)
	}
	if len(spec.Workloads) == 0 {
		return nil, fmt.Errorf("astrasim: search %q has no workloads", spec.Name)
	}
	ax := &searchAxis{
		name: "search",
		simulate: func(m *Machine, j int) (time.Duration, time.Duration, error) {
			// Each run materializes its own workload so trace readers and
			// generators are never shared between goroutines.
			w, err := spec.Workloads[j].Workload()
			if err != nil {
				return 0, 0, err
			}
			rep, err := m.Run(w)
			if err != nil {
				return 0, 0, err
			}
			return rep.Makespan, rep.ExposedComm, nil
		},
	}
	names, err := workloadNames(spec.Workloads)
	if err != nil {
		name := spec.Name
		if name == "" {
			name = ax.name
		}
		return nil, fmt.Errorf("astrasim: search %s: %w", name, err)
	}
	for _, n := range names {
		ax.values = append(ax.values, axisValue{
			label: n, eval: SearchEval{Workload: n}, pruned: SearchPruned{Workload: n},
		})
	}
	return ax, nil
}

// buildPlacementAxis is the cluster-mode axis: one value per placement
// policy, each co-simulating every job of the spec. A (fabric, placement)
// pair the jobs cannot be laid out on is infeasible, not an error.
func buildPlacementAxis(name string, cs *ClusterSearchSpec) (*searchAxis, error) {
	if len(cs.Jobs) == 0 {
		return nil, fmt.Errorf("astrasim: cluster search %q has no jobs", name)
	}
	placements := cs.Placements
	if len(placements) == 0 {
		placements = cluster.Placements()
	}
	placed := make([]cluster.Placement, len(placements))
	for i, p := range placements {
		pl, err := cluster.ParsePlacement(p)
		if err != nil {
			return nil, err
		}
		placed[i] = pl
	}
	jobs, err := expandClusterJobs(cs.Jobs)
	if err != nil {
		return nil, err
	}
	ax := &searchAxis{
		name: "cluster-search",
		feasible: func(m *Machine, j int) error {
			// Planning never generates a trace, so the validated jobs serve
			// every (serial) feasibility check.
			cfg := clusterConfig(m, placed[j], cs.Seed, jobs)
			_, err := cluster.Plan(cfg.Fabric, cfg.Jobs, cfg.Placement, cfg.Seed)
			return err
		},
		simulate: func(m *Machine, j int) (time.Duration, time.Duration, error) {
			// Each run materializes its own workloads so trace generators
			// are never shared between goroutines.
			jobs, err := expandClusterJobs(cs.Jobs)
			if err != nil {
				return 0, 0, err
			}
			res, err := cluster.Run(clusterConfig(m, placed[j], cs.Seed, jobs))
			if err != nil {
				return 0, 0, err
			}
			// The cluster makespan is when the last job finishes; comm is
			// the mean exposed communication across jobs — fabric
			// interference without the compute floor.
			var comm time.Duration
			for _, jr := range res.Jobs {
				comm += toDuration(jr.Stats.MeanBreakdown().ExposedComm)
			}
			return toDuration(res.Makespan), comm / time.Duration(len(res.Jobs)), nil
		},
	}
	workload := fmt.Sprintf("cluster(%d jobs)", len(jobs))
	for _, p := range placements {
		ax.values = append(ax.values, axisValue{
			label:  p,
			eval:   SearchEval{Workload: workload, Placement: p},
			pruned: SearchPruned{Placement: p},
		})
	}
	return ax, nil
}

// Optimize searches the spec's machine x workload space (or, in cluster
// mode, fabric x placement space) for the candidate minimizing the
// objective. Candidates are screened with the closed-form collective
// estimator; only strategy-promoted survivors run the full event engine.
// The result is byte-identical for any worker count.
func Optimize(spec SearchSpec, opt SearchOptions) (*SearchResult, error) {
	axis, err := buildSearchAxis(spec)
	if err != nil {
		return nil, err
	}
	machines, err := buildSearchMachines(spec)
	if err != nil {
		return nil, err
	}
	name := spec.Name
	if name == "" {
		name = axis.name
	}
	var objName string
	switch spec.Objective {
	case "", "makespan":
		objName = "makespan"
	case "comm", "exposed_comm":
		objName = "comm"
	default:
		return nil, fmt.Errorf("astrasim: unknown objective %q (want makespan or comm)", spec.Objective)
	}
	proxyOp := spec.ProxyOp
	if proxyOp == "" {
		proxyOp = "all_reduce"
	}
	if _, _, err := collectiveOp(proxyOp); err != nil {
		return nil, fmt.Errorf("astrasim: proxy op: %w", err)
	}
	proxySize := spec.ProxySizeBytes
	if proxySize == 0 {
		proxySize = 1 << 30
	}
	strat, err := search.CanonicalStrategy(spec.Strategy)
	if err != nil {
		return nil, err
	}

	// Candidate id = machine-major (axis value fastest), matching the sweep
	// engine's row-major convention.
	nA := len(axis.values)
	problem := search.Problem{
		Name:       name,
		Candidates: len(machines.names) * nA,
		Label: func(i int) string {
			return machines.names[i/nA] + " / " + axis.values[i%nA].label
		},
		Feasible: func(i int) error {
			if r := machines.reasons[i/nA]; r != "" {
				return errors.New(r)
			}
			if axis.feasible != nil {
				return axis.feasible(machines.mach[i/nA], i%nA)
			}
			return nil
		},
		Estimate: func(i int) (float64, error) {
			d, err := machines.mach[i/nA].EstimateCollective(proxyOp, proxySize)
			return float64(d), err
		},
		Simulate: func(i int) (float64, error) {
			makespan, comm, err := axis.simulate(machines.mach[i/nA], i%nA)
			if objName == "comm" {
				return float64(comm), err
			}
			return float64(makespan), err
		},
	}

	// The screening estimate is machine-level: every axis value paired with
	// one machine ties, and ties rank by candidate id. With several values
	// the default budget therefore promotes whole machines —
	// ceil(feasibleMachines/eta) of them, all pairs — so no workload or
	// placement is dropped by id order. A machine counts when any value is
	// feasible on it (placement policies genuinely differ: strided can split
	// blocks packed keeps whole). An explicit MaxSimulations is respected
	// as-is, and Population only affects the random strategy, whose
	// explicit sample keeps its own derived budget (ceil(Population/Eta)).
	maxSims := spec.MaxSimulations
	if maxSims <= 0 && nA > 1 && !(strat == "random" && spec.Population > 0) {
		eta := spec.Eta
		if eta <= 0 {
			eta = 4
		}
		feasibleMachines := 0
		for mi := range machines.names {
			for j := 0; j < nA; j++ {
				if problem.Feasible(mi*nA+j) == nil {
					feasibleMachines++
					break
				}
			}
		}
		if feasibleMachines > 0 {
			maxSims = search.CeilDiv(feasibleMachines, eta) * nA
		}
	}
	res, err := search.Optimize(problem, search.Options{
		Strategy:       spec.Strategy,
		Seed:           spec.Seed,
		MaxSimulations: maxSims,
		Population:     spec.Population,
		Eta:            spec.Eta,
		Exec:           sweep.Exec{Workers: opt.Workers, Progress: opt.Progress},
	})
	if err != nil {
		return nil, err
	}

	conv := func(e search.Eval) SearchEval {
		ev := axis.values[e.Candidate%nA].eval
		ev.Machine = machines.names[e.Candidate/nA]
		ev.Score = time.Duration(e.Score)
		ev.Promoted = e.Promoted
		return ev
	}
	out := &SearchResult{
		Name:        spec.Name,
		Strategy:    res.Strategy,
		Seed:        res.Seed,
		Objective:   objName,
		Candidates:  res.Candidates,
		Feasible:    res.Feasible,
		Estimates:   res.Estimates,
		Simulations: res.Simulations,
		Best:        conv(res.Best),
		Wall:        res.Wall,
	}
	for _, g := range res.History {
		gen := SearchGeneration{Index: g.Index, Fidelity: g.Fidelity}
		for _, e := range g.Evals {
			gen.Evals = append(gen.Evals, conv(e))
		}
		out.History = append(out.History, gen)
	}
	for _, p := range res.PrunedCandidates {
		row := axis.values[p.Candidate%nA].pruned
		row.Machine = machines.names[p.Candidate/nA]
		row.Reason = p.Reason
		out.Pruned = append(out.Pruned, row)
	}
	return out, nil
}

// WriteJSON writes the result as an indented JSON document — byte-
// identical for any worker count.
func (r *SearchResult) WriteJSON(w io.Writer) error { return writeJSON(w, r) }

// WriteCSV writes the full history flat: one record per evaluation, in
// rung order. Deterministic for a given result.
func (r *SearchResult) WriteCSV(w io.Writer) error {
	recs := [][]string{{"generation", "fidelity", "machine", "workload", "placement", "score_us", "promoted"}}
	for _, g := range r.History {
		for _, e := range g.Evals {
			recs = append(recs, []string{
				strconv.Itoa(g.Index), g.Fidelity, e.Machine, e.Workload, e.Placement,
				csvMicros(e.Score), strconv.FormatBool(e.Promoted),
			})
		}
	}
	return csv.NewWriter(w).WriteAll(recs)
}

// WriteTable writes a human-readable run summary: rung structure, budget
// accounting and the winner.
func (r *SearchResult) WriteTable(w io.Writer) error {
	name := r.Name
	if name == "" {
		name = "search"
	}
	if _, err := fmt.Fprintf(w, "search %s: strategy=%s objective=%s seed=%d\n",
		name, r.Strategy, r.Objective, r.Seed); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "space: %d candidates (%d feasible, %d pruned)\n",
		r.Candidates, r.Feasible, len(r.Pruned)); err != nil {
		return err
	}
	for _, g := range r.History {
		promoted := 0
		for _, e := range g.Evals {
			if e.Promoted {
				promoted++
			}
		}
		line := fmt.Sprintf("  rung %d: %-8s %3d candidates", g.Index, g.Fidelity, len(g.Evals))
		if promoted > 0 {
			line += fmt.Sprintf(", %d promoted", promoted)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	frac := 0.0
	if r.Feasible > 0 {
		frac = 100 * float64(r.Simulations) / float64(r.Feasible)
	}
	if _, err := fmt.Fprintf(w, "simulated %d/%d candidates (%.0f%% of the feasible space) in %v\n",
		r.Simulations, r.Feasible, frac, r.Wall.Round(time.Millisecond)); err != nil {
		return err
	}
	best := r.Best.Machine + " / " + r.Best.Workload
	if r.Best.Placement != "" {
		best += " / " + r.Best.Placement
	}
	_, err := fmt.Fprintf(w, "best: %s  %s = %v\n", best, r.Objective, r.Best.Score)
	return err
}
