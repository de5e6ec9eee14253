// Package cluster simulates multi-tenant training clusters: N co-scheduled
// training jobs space-sharing one hierarchical fabric and one
// disaggregated memory pool. This is the scenario class behind the paper's
// scale argument (and ASTRA-sim 3.0's infrastructure-level follow-up):
// fabrics and memory pools are shared resources, and a job's iteration
// time depends on who it is co-located with.
//
// The model is space partitioning with runtime arbitration:
//
//   - Every job owns a disjoint set of the fabric's NPUs, carved along the
//     fabric's dimension structure (Plan): inner dimensions are taken
//     whole, and a trailing Subdividable dimension (a switch) may be
//     sliced into ports. The job then runs the ordinary single-job
//     simulator — its own network backend, collective engine and
//     execution-trace state — over that carved-out local topology.
//   - All jobs share one discrete-event timeline, so their events
//     interleave exactly as they would on real shared hardware.
//   - Per-NPU endpoint links are private to their owning job, but the
//     fabric levels where several jobs co-reside (a shared switch core, an
//     interleaved ring) are arbitrated at runtime: each active flow
//     reports to a shared fabricState, and when the aggregate demand of
//     the jobs concurrently active on the same physical instances of a
//     dimension exceeds one instance's capacity, new flows there are
//     stretched by the demand/capacity ratio — first-order fair sharing,
//     recomputed on every flow start and finish through the timeline's
//     typed events. Jobs on disjoint instances (different mid-level
//     switches) never see each other's demand.
//   - The remote memory pool is arbitrated the same way at job
//     granularity: a job's remote accesses assume the whole pool, so an
//     access issued while k jobs are streaming is stretched k-fold.
//
// A single-job cluster attaches no arbitration at all and is byte-for-byte
// identical to the isolated run of the same local machine — the anchor
// that makes per-job slowdown a well-defined metric.
package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/collective"
	"repro/internal/compute"
	"repro/internal/core"
	"repro/internal/et"
	"repro/internal/memory"
	"repro/internal/scenario"
	"repro/internal/timeline"
	"repro/internal/topology"
	"repro/internal/units"
)

// Placement selects how job allocations are laid out on the fabric.
type Placement int

// Placement policies.
const (
	// Packed gives each job consecutive allocation units in arrival
	// order — the locality-preserving default.
	Packed Placement = iota
	// Strided deals allocation units round-robin across the jobs, the
	// worst-case interleaving (jobs co-reside on every fabric level their
	// units subdivide).
	Strided
	// Random shuffles the allocation units with a seeded PRNG before
	// dealing them packed — the "fragmented cluster" middle ground.
	Random
)

// String names the policy.
func (p Placement) String() string {
	switch p {
	case Packed:
		return "packed"
	case Strided:
		return "strided"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// ParsePlacement resolves a policy name (case-insensitive; "" = packed).
func ParsePlacement(s string) (Placement, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "packed":
		return Packed, nil
	case "strided":
		return Strided, nil
	case "random":
		return Random, nil
	default:
		return 0, fmt.Errorf("cluster: unknown placement %q (want %s)", s, strings.Join(Placements(), ", "))
	}
}

// Placements lists the policy names, in declaration order — the vocabulary
// for CLI help and the search layer's placement axis.
func Placements() []string { return []string{"packed", "strided", "random"} }

// TraceFunc generates a job's execution trace for its carved-out local
// topology.
type TraceFunc func(*topology.Topology) (*et.Trace, error)

// JobConfig describes one co-scheduled training job.
type JobConfig struct {
	// Name labels the job in results.
	Name string
	// NPUs is the job's allocation size. It must decompose along the
	// fabric's dimensions: inner dimensions taken whole, with at most one
	// trailing sliced switch dimension.
	NPUs int
	// Arrival is the simulated time the job's trace is released.
	Arrival units.Time
	// Trace generates the job's workload on its local topology.
	Trace TraceFunc
}

// Config assembles a simulated multi-job cluster. Compute, memory,
// scheduler and chunking are cluster-wide (a homogeneous machine pool);
// each job brings its own workload and allocation size.
type Config struct {
	Fabric  *topology.Topology
	Compute compute.Model
	Memory  memory.System
	Policy  collective.Policy
	Chunks  int
	// CollectiveLogLimit caps each job's retained collective results.
	CollectiveLogLimit     int
	ModelTransitCongestion bool

	Placement Placement
	// Seed drives the random placement's shuffle; results are fully
	// reproducible for a fixed seed.
	Seed int64
	Jobs []JobConfig

	// Scenario, when non-nil, injects fabric-relative perturbations: link
	// events name fabric dimensions, NPU events name fabric ranks. Each
	// event is translated into every job it touches — link events apply to
	// jobs whose carved-out local topology includes the dimension, NPU
	// events to the job owning the rank — and jobs untouched by any event
	// run byte-identical to an isolated clean run.
	Scenario *scenario.Scenario
}

// JobPlacement is one job's slot in a planned layout.
type JobPlacement struct {
	Name string
	// Local is the job's carved-out topology; its dimensions are a prefix
	// of the fabric's (the last possibly a sliced switch).
	Local *topology.Topology
	// Ranks are the fabric NPUs the job owns, ascending.
	Ranks []int
	// SharedDims marks, per local dimension, whether another job
	// co-resides on the same physical instance of that fabric level — the
	// dimensions where runtime arbitration applies.
	SharedDims []bool

	// weight is the job's per-fabric-dimension bandwidth demand while
	// active (ports per instance x local effective bandwidth), used by the
	// fair-sharing arbiter.
	weight []float64
	// group is, per local dimension, the index of the instance-sharing
	// component the job contends in (-1 where unshared): jobs whose
	// physical dim-d instances are disjoint never see each other's
	// demand, even when both dims are "shared" with someone.
	group []int
}

// Layout is a planned assignment of jobs to fabric NPUs.
type Layout struct {
	Fabric *topology.Topology
	Jobs   []JobPlacement

	// groups[d] counts the instance-sharing components on fabric dim d.
	groups []int
}

// localTopology carves a job-sized sub-fabric out of the cluster fabric:
// dimensions are consumed innermost-first, whole while the job size
// allows, with at most one trailing partial dimension — which must be
// Subdividable (a switch), because a subset of a ring or torus is not the
// same fabric.
func localTopology(fabric *topology.Topology, npus int) (*topology.Topology, error) {
	if npus < 2 {
		return nil, fmt.Errorf("cluster: jobs need at least 2 NPUs, got %d", npus)
	}
	rem := npus
	var dims []topology.Dim
	for i, d := range fabric.Dims {
		if rem == 1 {
			break
		}
		if rem >= d.Size {
			if rem%d.Size != 0 {
				return nil, fmt.Errorf("cluster: job size %d does not tile dim %d %s (size %d must divide the remaining factor %d)",
					npus, i+1, d.Format(), d.Size, rem)
			}
			dims = append(dims, d)
			rem /= d.Size
			continue
		}
		// Partial take: rem ports of dim i.
		if d.Size%rem != 0 {
			return nil, fmt.Errorf("cluster: job size %d leaves a factor %d that does not divide dim %d %s",
				npus, rem, i+1, d.Format())
		}
		sub, ok := d.Kind.(topology.Subdividable)
		if !ok {
			return nil, fmt.Errorf("cluster: job size %d needs a %d-port slice of dim %d %s, but %s blocks cannot be subdivided (only switches can)",
				npus, rem, i+1, d.Format(), d.Kind.LongName())
		}
		sliced, err := sub.Slice(rem)
		if err != nil {
			return nil, fmt.Errorf("cluster: job size %d: slicing dim %d %s: %w", npus, i+1, d.Format(), err)
		}
		dims = append(dims, topology.Dim{Kind: sliced, Size: rem, Bandwidth: d.Bandwidth, Latency: d.Latency})
		rem = 1
	}
	if rem != 1 {
		return nil, fmt.Errorf("cluster: job size %d exceeds the fabric's %d NPUs", npus, fabric.NumNPUs())
	}
	return topology.New(dims...)
}

// unitBlock returns the job's natural allocation block: the product of the
// fabric dimensions it takes whole (1 if it slices the innermost dim).
func unitBlock(fabric, local *topology.Topology) int {
	b := 1
	for i, d := range local.Dims {
		if d.Size != fabric.Dims[i].Size {
			break // the sliced trailing dimension
		}
		b *= d.Size
	}
	return b
}

// Plan carves each job's local topology and assigns fabric NPUs under the
// placement policy, then analyses which fabric levels jobs share. It is
// pure layout — no simulation state — so the search layer can use it for
// feasibility pruning.
func Plan(fabric *topology.Topology, jobs []JobConfig, placement Placement, seed int64) (*Layout, error) {
	if fabric == nil {
		return nil, fmt.Errorf("cluster: no fabric topology")
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("cluster: no jobs")
	}
	n := fabric.NumNPUs()
	total := 0
	out := &Layout{Fabric: fabric, Jobs: make([]JobPlacement, len(jobs))}

	// Carve local topologies and find the cluster-wide allocation unit:
	// the smallest job block size. Block sizes are prefix products of the
	// fabric shape, so they form a divisibility chain and the smallest
	// divides all the others.
	unit := n
	for j, job := range jobs {
		local, err := localTopology(fabric, job.NPUs)
		if err != nil {
			return nil, fmt.Errorf("cluster: job %d (%s): %w", j, job.Name, err)
		}
		out.Jobs[j] = JobPlacement{Name: job.Name, Local: local}
		if b := unitBlock(fabric, local); b < unit {
			unit = b
		}
		total += job.NPUs
	}
	if total > n {
		return nil, fmt.Errorf("cluster: jobs need %d NPUs but the fabric has %d", total, n)
	}

	numUnits := n / unit
	assign := make([][]int, len(jobs)) // per job: assigned unit indices
	switch placement {
	case Packed:
		next := 0
		for j, job := range jobs {
			k := job.NPUs / unit
			for u := 0; u < k; u++ {
				assign[j] = append(assign[j], next+u)
			}
			next += k
		}
	case Strided:
		need := make([]int, len(jobs))
		for j, job := range jobs {
			need[j] = job.NPUs / unit
		}
		u := 0
		for {
			dealt := false
			for j := range jobs {
				if need[j] > 0 {
					assign[j] = append(assign[j], u)
					need[j]--
					u++
					dealt = true
				}
			}
			if !dealt {
				break
			}
		}
	case Random:
		perm := rand.New(rand.NewSource(seed)).Perm(numUnits)
		next := 0
		for j, job := range jobs {
			k := job.NPUs / unit
			assign[j] = append(assign[j], perm[next:next+k]...)
			sort.Ints(assign[j])
			next += k
		}
	default:
		return nil, fmt.Errorf("cluster: unknown placement %d", int(placement))
	}

	for j := range jobs {
		if err := out.Jobs[j].materialize(fabric, unit, assign[j]); err != nil {
			return nil, fmt.Errorf("cluster: job %d (%s) under %s placement: %w", j, jobs[j].Name, placement, err)
		}
	}
	out.analyzeSharing()
	return out, nil
}

// materialize converts a job's allocation units to concrete fabric ranks
// and validates that the units physically reassemble the job's local
// topology: whole dimensions must come back as whole, aligned blocks, and
// sliced switch ports must belong to the same physical switch instance.
func (jp *JobPlacement) materialize(fabric *topology.Topology, unit int, unitIdx []int) error {
	block := unitBlock(fabric, jp.Local)
	c := block / unit // units per whole-dimension block
	if c > 1 {
		for i := 0; i < len(unitIdx); i += c {
			base := unitIdx[i]
			if base%c != 0 {
				return fmt.Errorf("allocation unit %d is not aligned to the job's %d-NPU block; the layout cannot reassemble dim structure (use packed placement or align job sizes)", base, block)
			}
			for k := 1; k < c; k++ {
				if unitIdx[i+k] != base+k {
					return fmt.Errorf("allocation units %d and %d split a %d-NPU block the job needs whole (use packed placement or align job sizes)", base, unitIdx[i+k], block)
				}
			}
		}
	}
	// The sliced dimension's ports must share one physical instance: all
	// block indices must agree on every coordinate above the slice level.
	if last := len(jp.Local.Dims) - 1; last >= 0 && jp.Local.Dims[last].Size != fabric.Dims[last].Size {
		span := fabric.Dims[last].Size
		group := -1
		for i := 0; i < len(unitIdx); i += c {
			g := (unitIdx[i] / c) / span
			if group == -1 {
				group = g
			} else if g != group {
				return fmt.Errorf("the job's slice of dim %d %s spans two physical instances of the block; its ports must share one switch",
					last+1, fabric.Dims[last].Format())
			}
		}
	}
	jp.Ranks = make([]int, 0, len(unitIdx)*unit)
	for _, u := range unitIdx {
		for r := u * unit; r < (u+1)*unit; r++ {
			jp.Ranks = append(jp.Ranks, r)
		}
	}
	sort.Ints(jp.Ranks)
	return nil
}

// analyzeSharing marks, for every (job, fabric dim) the job communicates
// on, whether another communicating job co-resides on the same physical
// instance of that dimension, computes each job's per-instance bandwidth
// demand there, and partitions the contending jobs into instance-sharing
// components — the static inputs of the runtime arbiter. Components
// matter because demand is compared against one instance's capacity:
// jobs on disjoint instances of the same dimension (say, pairs of
// tenants under different mid-level switches) must not see each other's
// demand. Jobs that only partially overlap (possible under random
// placement of sub-leaf jobs) are lumped into one component — a
// first-order approximation.
func (l *Layout) analyzeSharing() {
	dims := len(l.Fabric.Dims)
	l.groups = make([]int, dims)
	for j := range l.Jobs {
		jp := &l.Jobs[j]
		jp.SharedDims = make([]bool, len(jp.Local.Dims))
		jp.weight = make([]float64, len(jp.Local.Dims))
		jp.group = make([]int, len(jp.Local.Dims))
		for d := range jp.group {
			jp.group[d] = -1
		}
	}

	parent := make([]int, len(l.Jobs))
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	for d := 0; d < dims; d++ {
		stride := l.Fabric.DimStride(d)
		size := l.Fabric.Dims[d].Size
		inst := func(g int) int { return (g/(stride*size))*stride + g%stride }
		for i := range parent {
			parent[i] = i
		}
		instFirst := make(map[int]int) // instance -> first communicating job
		instShared := make(map[int]bool)
		touched := make([]int, len(l.Jobs))
		for j := range l.Jobs {
			jp := &l.Jobs[j]
			if d >= len(jp.Local.Dims) {
				continue // the job never communicates on this dim
			}
			seen := make(map[int]bool)
			for _, g := range jp.Ranks {
				in := inst(g)
				if seen[in] {
					continue
				}
				seen[in] = true
				touched[j]++
				if first, ok := instFirst[in]; ok {
					instShared[in] = true
					parent[find(j)] = find(first)
				} else {
					instFirst[in] = j
				}
			}
		}
		rootGroup := make(map[int]int)
		for j := range l.Jobs {
			jp := &l.Jobs[j]
			if d >= len(jp.Local.Dims) {
				continue
			}
			ports := float64(len(jp.Ranks)) / float64(touched[j])
			jp.weight[d] = ports * float64(jp.Local.Dims[d].EffectiveBandwidth())
			shared := false
			for _, g := range jp.Ranks {
				if instShared[inst(g)] {
					shared = true
					break
				}
			}
			if !shared {
				continue
			}
			jp.SharedDims[d] = true
			r := find(j)
			gid, ok := rootGroup[r]
			if !ok {
				gid = l.groups[d]
				l.groups[d]++
				rootGroup[r] = gid
			}
			jp.group[d] = gid
		}
	}
}

// SharedAny reports whether the job contends on any fabric level.
func (jp *JobPlacement) SharedAny() bool {
	for _, s := range jp.SharedDims {
		if s {
			return true
		}
	}
	return false
}

// fabricState is the runtime fair-sharing arbiter for the shared fabric:
// per (dimension, instance-sharing component) it tracks which jobs have
// flows in flight and their aggregate per-instance bandwidth demand,
// against one instance's physical capacity.
type fabricState struct {
	layout *Layout
	// capacity[d] is one instance's aggregate effective bandwidth.
	capacity []float64
	// inflight[j][d] counts job j's in-flight flows on dim d;
	// demand[d][g] sums the weights of component g's jobs currently
	// active on d (only jobs marked shared there participate — a job
	// alone on its instances cannot contend).
	inflight [][]int
	demand   [][]float64
}

func newFabricState(l *Layout) *fabricState {
	dims := len(l.Fabric.Dims)
	st := &fabricState{
		layout:   l,
		capacity: make([]float64, dims),
		inflight: make([][]int, len(l.Jobs)),
		demand:   make([][]float64, dims),
	}
	for d, dim := range l.Fabric.Dims {
		st.capacity[d] = float64(dim.Size) * float64(dim.EffectiveBandwidth())
		st.demand[d] = make([]float64, l.groups[d])
	}
	for j := range l.Jobs {
		st.inflight[j] = make([]int, dims)
	}
	return st
}

// flowStarted counts a flow of job on dim and returns its contention
// factor. A flow on a dimension the job does not share is not counted
// (tracked false), so no flowFinished is owed for it.
func (st *fabricState) flowStarted(job, dim int) (factor float64, tracked bool) {
	jp := &st.layout.Jobs[job]
	if !jp.SharedDims[dim] {
		return 1, false
	}
	g := jp.group[dim]
	if st.inflight[job][dim] == 0 {
		st.demand[dim][g] += jp.weight[dim]
	}
	st.inflight[job][dim]++
	if c := st.capacity[dim]; c > 0 {
		if f := st.demand[dim][g] / c; f > 1 {
			return f, true
		}
	}
	return 1, true
}

// flowFinished retires a flow flowStarted counted.
func (st *fabricState) flowFinished(job, dim int) {
	jp := &st.layout.Jobs[job]
	st.inflight[job][dim]--
	if st.inflight[job][dim] == 0 {
		st.demand[dim][jp.group[dim]] -= jp.weight[dim]
	}
}

// jobFlows adapts one job's network backend to the shared fabricState —
// it implements network.FlowController.
type jobFlows struct {
	st  *fabricState
	job int
}

func (f *jobFlows) FlowStarted(dim int) (float64, bool) { return f.st.flowStarted(f.job, dim) }
func (f *jobFlows) FlowFinished(dim int)                { f.st.flowFinished(f.job, dim) }

// poolState arbitrates the shared remote memory pool at job granularity:
// each job's pool model assumes the whole pool, so an access issued while
// k jobs are streaming concurrently is stretched k-fold.
type poolState struct {
	inflight []int
	active   int
}

func (p *poolState) started(job int) float64 {
	if p.inflight[job] == 0 {
		p.active++
	}
	p.inflight[job]++
	return float64(p.active)
}

func (p *poolState) finished(job int) {
	p.inflight[job]--
	if p.inflight[job] == 0 {
		p.active--
	}
}

// jobPool adapts one job's simulator to the shared poolState — it
// implements core.RemoteArbiter.
type jobPool struct {
	st  *poolState
	job int
}

func (p *jobPool) RemoteStarted() float64 { return p.st.started(p.job) }
func (p *jobPool) RemoteFinished()        { p.st.finished(p.job) }

// JobResult is one job's outcome.
type JobResult struct {
	Name string
	NPUs int
	// Ranks are the fabric NPUs the job ran on.
	Ranks []int
	// Local is the job's carved-out topology.
	Local *topology.Topology
	// Arrival and Finish bound the job's span on the shared timeline;
	// Stats.Makespan is their difference.
	Arrival, Finish units.Time
	Stats           *core.RunStats
}

// Result is a completed cluster simulation.
type Result struct {
	Placement Placement
	Jobs      []JobResult
	// Makespan is the time the last job finished.
	Makespan units.Time
	// Events is the total number of discrete events fired across all jobs.
	Events uint64
}

// translateScenario projects a fabric-relative scenario onto one job's
// carved-out machine. A job's local topology is a prefix of the fabric's
// dimensions, so link events keep their dimension index when the job's
// local machine reaches that level; NPU events apply to the job owning the
// fabric rank, rewritten to the job-local rank (the rank's index in the
// ascending Ranks list). Jobs no event touches get a nil scenario and run
// byte-identical to an isolated clean machine.
func translateScenario(sc *scenario.Scenario, jp *JobPlacement) *scenario.Scenario {
	if sc == nil {
		return nil
	}
	var events []scenario.Event
	for _, ev := range sc.Events {
		switch ev.Kind {
		case scenario.DegradeLink, scenario.RestoreLink, scenario.FailLink:
			if ev.Dim >= 0 && ev.Dim < len(jp.Local.Dims) {
				events = append(events, ev)
			}
		case scenario.FailNPU, scenario.StraggleNPU:
			if i := sort.SearchInts(jp.Ranks, ev.NPU); i < len(jp.Ranks) && jp.Ranks[i] == ev.NPU {
				ev.NPU = i
				events = append(events, ev)
			}
		}
	}
	if events == nil {
		return nil
	}
	return &scenario.Scenario{Name: sc.Name, Events: events}
}

// Run plans the layout and co-simulates every job on one shared timeline.
// Results are deterministic: same config and seed, same bytes.
func Run(cfg Config) (*Result, error) {
	for j, job := range cfg.Jobs {
		if job.Trace == nil {
			return nil, fmt.Errorf("cluster: job %d (%s) has no trace generator", j, job.Name)
		}
	}
	if cfg.Scenario != nil {
		if err := cfg.Scenario.Validate(cfg.Fabric.NumNPUs(), cfg.Fabric.NumDims()); err != nil {
			return nil, err
		}
	}
	layout, err := Plan(cfg.Fabric, cfg.Jobs, cfg.Placement, cfg.Seed)
	if err != nil {
		return nil, err
	}

	eng := timeline.New()
	fabric := newFabricState(layout)
	var pool *poolState
	if cfg.Memory.HasPool && len(cfg.Jobs) > 1 {
		pool = &poolState{inflight: make([]int, len(cfg.Jobs))}
	}

	sims := make([]*core.Simulator, len(cfg.Jobs))
	for j, job := range cfg.Jobs {
		jp := &layout.Jobs[j]
		ccfg := core.Config{
			Topology:               jp.Local,
			Compute:                cfg.Compute,
			Memory:                 cfg.Memory,
			Policy:                 cfg.Policy,
			Chunks:                 cfg.Chunks,
			CollectiveLogLimit:     cfg.CollectiveLogLimit,
			ModelTransitCongestion: cfg.ModelTransitCongestion,
		}
		// Jobs that share nothing get no arbitration hooks at all: their
		// event stream is byte-identical to an isolated run.
		if jp.SharedAny() {
			ccfg.FlowController = &jobFlows{st: fabric, job: j}
		}
		ccfg.Scenario = translateScenario(cfg.Scenario, jp)
		if pool != nil {
			ccfg.RemoteArbiter = &jobPool{st: pool, job: j}
		}
		sim, err := core.NewSimulatorOn(eng, ccfg)
		if err != nil {
			return nil, fmt.Errorf("cluster: job %d (%s): %w", j, job.Name, err)
		}
		trace, err := job.Trace(jp.Local)
		if err != nil {
			return nil, fmt.Errorf("cluster: job %d (%s): trace: %w", j, job.Name, err)
		}
		if err := sim.Start(trace, job.Arrival); err != nil {
			return nil, fmt.Errorf("cluster: job %d (%s): %w", j, job.Name, err)
		}
		sims[j] = sim
	}

	if _, err := eng.Run(); err != nil {
		return nil, err
	}

	res := &Result{Placement: cfg.Placement, Events: eng.Fired()}
	for j, job := range cfg.Jobs {
		stats, err := sims[j].Finalize()
		if err != nil {
			return nil, fmt.Errorf("cluster: job %d (%s): %w", j, job.Name, err)
		}
		jp := &layout.Jobs[j]
		jr := JobResult{
			Name:    job.Name,
			NPUs:    job.NPUs,
			Ranks:   jp.Ranks,
			Local:   jp.Local,
			Arrival: sims[j].StartTime(),
			Finish:  sims[j].FinishTime(),
			Stats:   stats,
		}
		if jr.Finish > res.Makespan {
			res.Makespan = jr.Finish
		}
		res.Jobs = append(res.Jobs, jr)
	}
	return res, nil
}
