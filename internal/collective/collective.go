// Package collective implements the system layer's collective communication
// machinery: the four collective patterns of Fig. 2 (Reduce-Scatter,
// All-Gather, All-Reduce, All-to-All) executed as multi-rail hierarchical
// collectives over multi-dimensional topologies (Section II-B), with
// chunk-level pipelining across dimension phases and two chunk schedulers —
// the baseline fixed-order scheduler and the Themis greedy load-balancing
// scheduler of the paper's case studies.
//
// Execution model. A collective over a group with logical spans s1..sn is
// split into chunks. Each chunk flows through one phase per span
// (Reduce-Scatter ascending then All-Gather descending for All-Reduce), and
// every phase reserves the group members' per-dimension links on the shared
// analytical network backend for the phase's sent+received traffic. Chunks
// therefore pipeline: while chunk 0 runs its second phase, chunk 1 occupies
// the first span's links. With enough chunks the collective's runtime
// converges to the bottleneck dimension's total serialization time, which
// is exactly the behaviour the paper's Table IV exhibits. Every phase
// reserves its instance's registered network.LinkSet — the backend's
// machine set for a whole-machine group — so it costs O(1) while the set
// owns its links.
package collective

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/topology"
	"repro/internal/units"
)

// Op identifies a collective communication pattern (Fig. 2).
type Op int

// The four collective patterns used in distributed training.
const (
	ReduceScatter Op = iota
	AllGather
	AllReduce
	AllToAll
)

// String returns the conventional name of the pattern.
func (o Op) String() string {
	switch o {
	case ReduceScatter:
		return "Reduce-Scatter"
	case AllGather:
		return "All-Gather"
	case AllReduce:
		return "All-Reduce"
	case AllToAll:
		return "All-to-All"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Policy selects the chunk scheduler.
type Policy int

// Scheduling policies evaluated in Fig. 9(a).
const (
	// Baseline runs every chunk through spans in fixed order:
	// Reduce-Scatter ascending (Dim 1 first), All-Gather descending.
	Baseline Policy = iota
	// Themis plans each chunk's span permutation to balance projected
	// load across dimensions (Rashidi et al., ISCA 2022).
	Themis
)

// String names the policy.
func (p Policy) String() string {
	if p == Themis {
		return "Themis"
	}
	return "Baseline"
}

// Result summarizes one completed collective.
type Result struct {
	Op     Op
	Size   units.ByteSize
	Start  units.Time
	End    units.Time
	Chunks int
	// TrafficPerDim[d] is the sent+received bytes per NPU on physical
	// topology dimension d for this collective — the paper's Table IV
	// metric.
	TrafficPerDim []units.ByteSize
}

// Duration returns the collective's elapsed simulated time.
func (r Result) Duration() units.Time { return r.End - r.Start }

// Engine executes collectives over a shared analytical network backend.
type Engine struct {
	net    *network.Backend
	top    *topology.Topology
	policy Policy
	chunks int
	// projected[npu][dim] is the estimated remaining busy seconds that
	// in-flight collectives will still place on each NPU's dimension link
	// beyond what is already reserved. The Themis planner seeds its load
	// accumulators from it so concurrent collectives balance against each
	// other, not just against the queue state at issue time. Only Themis
	// engines carry the ledger; under the fixed scheduler it is nil and
	// collectives skip the O(members × spans) bookkeeping entirely.
	projected [][]float64

	// Planner scratch, reused across chunks (planning is synchronous).
	orderScratch []int
	usedScratch  []bool
	// basePlans[op][n] is op's fixed-order phase plan over n spans, built
	// once and shared read-only by every chunk that follows it.
	basePlans [AllToAll + 1][][]phase
	// freeRuns recycles finished runs, each with its chunk slab, so a
	// warm engine starts a collective without allocating per chunk.
	freeRuns []*collectiveRun
}

// Option configures an Engine.
type Option func(*Engine)

// WithPolicy selects the chunk scheduler (default Baseline).
func WithPolicy(p Policy) Option { return func(e *Engine) { e.policy = p } }

// defaultChunks is the collective pipelining depth where none is given.
const defaultChunks = 64

// WithChunks sets the number of chunks collectives are split into
// (default 64; a count of 0 or less keeps it). More chunks deepen the
// cross-dimension pipeline.
func WithChunks(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.chunks = n
		}
	}
}

// NewEngine builds a collective engine over the given backend.
func NewEngine(net *network.Backend, opts ...Option) *Engine {
	e := &Engine{net: net, top: net.Topology(), policy: Baseline, chunks: defaultChunks}
	for _, o := range opts {
		o(e)
	}
	if e.policy == Themis {
		n, d := e.top.NumNPUs(), e.top.NumDims()
		e.projected = make([][]float64, n)
		backing := make([]float64, n*d) // one allocation for all rows
		for i := range e.projected {
			e.projected[i] = backing[i*d : (i+1)*d : (i+1)*d]
		}
	}
	return e
}

// phase is one span traversal of one chunk.
type phase struct {
	span int // index into run.spans
	op   Op  // ReduceScatter, AllGather, or AllToAll phase semantics
}

// chunkState tracks one chunk's progress through its phases. It doubles as
// the chunk's timeline event (timeline.Actor): each phase completion
// re-schedules the chunk itself, so a phase hop allocates nothing. Chunk
// states live in their run's slab and are recycled with the run, so a warm
// engine launches a chunk wave without allocating at all.
type chunkState struct {
	size units.ByteSize // current per-NPU data size D
	done int            // completed phases
	// phases is the planned phase sequence: the engine's shared base plan
	// under the fixed order, or plan under Themis.
	phases []phase
	// plan is this slot's own buffer for a Themis per-chunk plan. It is
	// never shared, so planning into it cannot touch a base plan.
	plan []phase
	eng  *Engine
	run  *collectiveRun
}

// Act implements timeline.Actor: advance this chunk to its next phase.
func (cs *chunkState) Act() { cs.eng.advance(cs.run, cs) }

// collectiveRun is the in-flight state of one collective.
type collectiveRun struct {
	op   Op
	size units.ByteSize
	// links is the group instance's link set, which its phases reserve.
	links *network.LinkSet
	// members lists the member ranks for the Themis ledger; nil under the
	// fixed scheduler, which never needs them.
	members []int
	spans   []Span
	start   units.Time
	pending int
	// traffic is fresh per run: it escapes as Result.TrafficPerDim.
	traffic []units.ByteSize
	// loads accumulates each span's projected busy seconds for the Themis
	// planner's balancing decisions.
	loads []float64
	// contrib is this collective's registration in the engine's projected
	// ledger, keyed by span, removed at completion.
	contrib []float64
	done    func(Result)
	chunks  int
	// slab holds the chunk states; like loads and contrib, it keeps its
	// array when the run is recycled.
	slab []chunkState
}

// newRun takes a finished run from the engine's free list, or allocates one.
func (e *Engine) newRun() *collectiveRun {
	if n := len(e.freeRuns); n > 0 {
		run := e.freeRuns[n-1]
		e.freeRuns = e.freeRuns[:n-1]
		return run
	}
	return new(collectiveRun)
}

// zeroed returns s resized to n zeros, reusing its array when it fits.
func zeroed(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Start launches a collective of the given total size over a group and
// invokes done with the result when it completes. Size semantics follow
// ASTRA-sim's conventions:
//
//   - AllReduce(S):      every member starts with S bytes; ends with S.
//   - ReduceScatter(S):  every member starts with S; ends with S/|group|.
//   - AllGather(S):      every member starts with S/|group|; ends with S.
//   - AllToAll(S):       every member exchanges a total of S bytes.
//
// links is the group instance's link set on the engine's backend (see
// network.Backend.NewLinkSet), registered once per instance and reused by
// every collective on it. With nil links a whole-machine group reserves the
// backend's machine set, and a subset group gets a fresh set, which suits
// one-off collectives but registers a new set per call.
func (e *Engine) Start(op Op, size units.ByteSize, g Group, links *network.LinkSet, done func(Result)) error {
	startSize, err := startShard(op, size, g)
	if err != nil {
		return err
	}
	n := g.Size()
	// The machine set serves a whole-machine group without listing its
	// ranks; only the Themis ledger needs member ranks.
	if links == nil {
		if n == e.top.NumNPUs() {
			links = e.net.Machine()
		} else {
			links = e.net.NewLinkSet(g.Members(e.top))
		}
	}
	var members []int
	if e.policy == Themis {
		members = links.Members()
	}
	// A recycled run carries over only its buffers.
	run := e.newRun()
	*run = collectiveRun{
		op:      op,
		size:    size,
		links:   links,
		members: members,
		spans:   g.Spans,
		start:   e.net.Now(),
		traffic: make([]units.ByteSize, e.top.NumDims()),
		loads:   zeroed(run.loads, len(g.Spans)),
		contrib: run.contrib,
		done:    done,
		chunks:  e.chunks,
		slab:    run.slab,
	}
	if e.policy == Themis {
		// Seed the planner with each dimension's congestion: the larger
		// of the already-reserved backlog and the projected remaining
		// work of concurrent collectives. Without this, a collective
		// would happily dump its heavy phases onto a dimension another
		// collective is about to saturate (e.g. an MP All-Reduce onto the
		// DP dimension).
		now := e.net.Now()
		for si, sp := range run.spans {
			backlog := (e.net.PhaseAvailability(links, sp.Phys) - now).Seconds()
			proj := 0.0
			for _, m := range members {
				if p := e.projected[m][sp.Phys]; p > proj {
					proj = p
				}
			}
			if backlog > proj {
				run.loads[si] = backlog
			} else {
				run.loads[si] = proj
			}
		}
	}
	// Register this collective's expected per-dimension load in the
	// projected ledger, using the balanced distribution (equal busy time on
	// every spanned dimension) Themis will actually schedule — except for
	// All-to-All, whose per-dim traffic is ordering-invariant and keeps the
	// fixed-order busy-time estimate. The ledger only exists under Themis;
	// the fixed scheduler never reads it, so those runs skip the
	// O(members × spans) registration entirely.
	if e.policy == Themis {
		run.contrib = zeroed(run.contrib, len(run.spans))
		if op != AllToAll {
			traffic := spanTraffic(e.top, op, size, g)
			var totalBytes float64
			var aggBW float64
			for _, sp := range run.spans {
				aggBW += float64(e.top.Dims[sp.Phys].EffectiveBandwidth())
			}
			for _, b := range traffic {
				totalBytes += float64(b)
			}
			if aggBW > 0 {
				balanced := totalBytes / aggBW
				for si := range run.spans {
					run.contrib[si] = balanced
				}
			}
		} else {
			busy := spanBusyTimes(e.top, op, size, g)
			for si := range run.spans {
				run.contrib[si] = busy[si].Seconds()
			}
		}
		for si, sp := range run.spans {
			for _, m := range members {
				e.projected[m][sp.Phys] += run.contrib[si]
			}
		}
	}
	if units.ByteSize(run.chunks) > startSize {
		run.chunks = int(startSize) // never create sub-byte chunks
	}
	run.pending = run.chunks
	// Under the fixed scheduler every chunk follows the same phase order,
	// so the whole wave shares one read-only plan; only Themis plans per
	// chunk (its load accumulators evolve between chunks).
	var shared []phase
	if e.policy != Themis || op == AllToAll {
		shared = e.basePlan(op, len(run.spans))
	}
	if cap(run.slab) < run.chunks {
		run.slab = make([]chunkState, run.chunks)
	}
	run.slab = run.slab[:run.chunks]
	for c := range run.slab {
		cs := &run.slab[c]
		cs.size, cs.done, cs.eng, cs.run = e.chunkSize(startSize, run.chunks, c), 0, e, run
		if shared != nil {
			cs.phases = shared
		} else {
			e.planChunk(run, cs)
		}
		e.advance(run, cs)
	}
	return nil
}

// startShard returns the per-NPU size op of total size starts from on g,
// or the error Start refuses the collective with.
func startShard(op Op, size units.ByteSize, g Group) (units.ByteSize, error) {
	if size <= 0 {
		return 0, fmt.Errorf("collective: non-positive size %d", size)
	}
	if len(g.Spans) == 0 {
		return 0, fmt.Errorf("collective: group has no spans")
	}
	n := g.Size()
	if n < 2 {
		return 0, fmt.Errorf("collective: group of size %d; need at least 2 members", n)
	}
	shard := InitialShard(op, size, n)
	if shard <= 0 {
		return 0, fmt.Errorf("collective: %v of %v over %d members leaves an empty shard", op, size, n)
	}
	return shard, nil
}

// chunkSize splits size into chunks as evenly as possible.
func (e *Engine) chunkSize(size units.ByteSize, chunks, idx int) units.ByteSize {
	base := size / units.ByteSize(chunks)
	rem := size % units.ByteSize(chunks)
	if units.ByteSize(idx) < rem {
		return base + 1
	}
	return base
}

// basePlan returns fixedPlan(op, n), built once per engine and shared by
// every chunk that follows it.
func (e *Engine) basePlan(op Op, n int) []phase {
	plans := e.basePlans[op]
	if n < len(plans) && plans[n] != nil {
		return plans[n]
	}
	p := fixedPlan(op, n)
	if n >= len(plans) {
		plans = append(plans, make([][]phase, n+1-len(plans))...)
		e.basePlans[op] = plans
	}
	plans[n] = p
	return p
}

// fixedPlan returns the fixed multi-rail phase order of op over n spans:
// Reduce-Scatter ascending (Dim 1 first), All-Gather descending. All-to-all
// keeps D constant through every phase, so per-dim traffic is
// ordering-invariant and the fixed ascending order applies under every
// scheduler (per-chunk order shuffling would only roughen the pipeline).
// MessageSchedule walks the same order.
func fixedPlan(op Op, n int) []phase {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	p := make([]phase, 0, 2*n)
	switch op {
	case ReduceScatter, AllToAll:
		p = phasesFor(p, all, op, false)
	case AllGather:
		p = phasesFor(p, all, AllGather, true)
	case AllReduce:
		p = phasesFor(p, all, ReduceScatter, false)
		p = phasesFor(p, all, AllGather, true)
	default:
		panic("collective: unknown op in fixedPlan")
	}
	return p
}

// planChunk builds a Themis chunk's phase plan, a per-chunk span
// permutation that balances projected load across dimensions, into the
// chunk slot's own plan buffer.
func (e *Engine) planChunk(run *collectiveRun, cs *chunkState) {
	n := len(run.spans)
	if run.op == AllReduce {
		n *= 2
	}
	if cap(cs.plan) < n {
		cs.plan = make([]phase, 0, n)
	}
	plan := cs.plan[:0]
	switch run.op {
	case ReduceScatter:
		plan = phasesFor(plan, e.themisPlan(run, run.op, cs.size), run.op, false)
	case AllGather:
		// All-Gather phase costs grow with position, so greedy assignment
		// must fix the most expensive (last) position first. Planning the
		// order backward is cost-identical to planning a Reduce-Scatter
		// forward from the final gathered size, so reuse that planner and
		// reverse its order.
		final := cs.size
		for _, s := range run.spans {
			final *= units.ByteSize(s.K)
		}
		order := reverseInts(e.themisPlan(run, ReduceScatter, final))
		plan = phasesFor(plan, order, AllGather, false)
	case AllReduce:
		// The Reduce-Scatter and All-Gather halves are planned
		// independently: once every span has been reduce-scattered, each
		// NPU holds a 1/N shard and the gather may traverse spans in any
		// order, which roughly doubles the planner's balancing freedom.
		// The All-Gather half regrows the chunk to cs.size, so its
		// backward plan starts there. The planner's order scratch is
		// consumed into the phase plan before the second planning call
		// reuses it.
		plan = phasesFor(plan, e.themisPlan(run, ReduceScatter, cs.size), ReduceScatter, false)
		agOrder := reverseInts(e.themisPlan(run, ReduceScatter, cs.size))
		plan = phasesFor(plan, agOrder, AllGather, false)
	default:
		panic("collective: unexpected op in planChunk")
	}
	cs.plan, cs.phases = plan, plan
}

func reverseInts(s []int) []int {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
	return s
}

// themisPlan greedily assigns a span permutation for one half (or all) of
// the chunk's phases: positions are planned in execution order (largest
// Reduce-Scatter input first), and each position takes the span whose
// projected load after absorbing the phase cost is smallest. This is the
// load-balancing core of the Themis scheduler (Rashidi et al., ISCA 2022),
// legal because multi-rail hierarchical collectives admit any per-chunk
// span permutation. chunkSize is the per-NPU data size entering the first
// planned phase. The returned slice holds span indices.
func (e *Engine) themisPlan(run *collectiveRun, op Op, chunkSize units.ByteSize) []int {
	d := float64(chunkSize)
	// Planning is synchronous, so the per-engine scratch is safe to reuse;
	// callers copy the order into their phase plan before planning again.
	if cap(e.orderScratch) < len(run.spans) {
		e.orderScratch = make([]int, 0, len(run.spans))
		e.usedScratch = make([]bool, len(run.spans))
	}
	order := e.orderScratch[:0]
	used := e.usedScratch[:len(run.spans)]
	for i := range used {
		used[i] = false
	}
	for pos := 0; pos < len(run.spans); pos++ {
		best, bestLoad := -1, 0.0
		var bestCost float64
		for si, s := range run.spans {
			if used[si] {
				continue
			}
			k := float64(s.K)
			bw := float64(e.top.Dims[s.Phys].EffectiveBandwidth())
			if bw <= 0 {
				bw = 1 // treat unset bandwidth as uncosted
			}
			var cost float64
			switch op {
			case ReduceScatter, AllToAll:
				cost = 2 * d * (k - 1) / k / bw
			case AllGather:
				cost = 2 * d * (k - 1) / bw
			}
			if nl := run.loads[si] + cost; best == -1 || nl < bestLoad {
				best, bestLoad, bestCost = si, nl, cost
			}
		}
		used[best] = true
		run.loads[best] += bestCost
		order = append(order, best)
		switch op {
		case ReduceScatter:
			d /= float64(run.spans[best].K)
		case AllGather:
			d *= float64(run.spans[best].K)
		}
	}
	return order
}

// phasesFor appends one phase per span index onto dst.
func phasesFor(dst []phase, spanIdx []int, op Op, descending bool) []phase {
	if descending {
		for i := len(spanIdx) - 1; i >= 0; i-- {
			dst = append(dst, phase{span: spanIdx[i], op: op})
		}
		return dst
	}
	for _, s := range spanIdx {
		dst = append(dst, phase{span: s, op: op})
	}
	return dst
}

// advance issues the chunk's next phase, or completes the chunk.
func (e *Engine) advance(run *collectiveRun, cs *chunkState) {
	if cs.done >= len(cs.phases) {
		run.pending--
		if run.pending == 0 {
			e.finish(run)
		}
		return
	}
	ph := cs.phases[cs.done]
	sp := run.spans[ph.span]
	dim := e.top.Dims[sp.Phys]
	traffic := dim.PhaseTraffic(phaseKind(ph.op), cs.size, sp.K)
	_, serEnd := e.net.ReservePhase(run.links, sp.Phys, traffic)
	run.traffic[sp.Phys] += traffic
	cs.size = phaseOutput(ph.op, cs.size, sp.K)
	cs.done++
	completion := serEnd + dim.PhaseLatency(sp.K)
	// The chunk is its own timeline event: no closure per phase hop.
	e.net.ScheduleActor(completion-e.net.Now(), cs)
}

func (e *Engine) finish(run *collectiveRun) {
	if e.projected != nil {
		for si, sp := range run.spans {
			for _, m := range run.members {
				e.projected[m][sp.Phys] -= run.contrib[si]
			}
		}
	}
	res := Result{
		Op:            run.op,
		Size:          run.size,
		Start:         run.start,
		End:           e.net.Now(),
		Chunks:        run.chunks,
		TrafficPerDim: run.traffic,
	}
	if run.done != nil {
		run.done(res)
	}
	// Recycle only once done has returned: a collective that done starts
	// on this engine must not receive the run that is finishing. The
	// result now owns the traffic slice.
	run.traffic, run.done = nil, nil
	e.freeRuns = append(e.freeRuns, run)
}

// phaseKind maps a primitive collective op to the model layer's phase
// identity. Composite ops (All-Reduce) have no single phase kind.
func phaseKind(op Op) topology.PhaseKind {
	switch op {
	case ReduceScatter:
		return topology.PhaseReduceScatter
	case AllGather:
		return topology.PhaseAllGather
	case AllToAll:
		return topology.PhaseAllToAll
	default:
		panic("collective: phaseKind on composite op")
	}
}

// phaseOutput returns the chunk's per-NPU size after the phase.
func phaseOutput(op Op, d units.ByteSize, k int) units.ByteSize {
	switch op {
	case ReduceScatter:
		return d / units.ByteSize(k)
	case AllGather:
		return d * units.ByteSize(k)
	case AllToAll:
		return d
	default:
		panic("collective: phaseOutput on composite op")
	}
}

// InitialShard returns the per-NPU starting data size for an op of total
// size S on a group with n members (see Start for the size conventions).
func InitialShard(op Op, size units.ByteSize, n int) units.ByteSize {
	if op == AllGather {
		return size / units.ByteSize(n)
	}
	return size
}
