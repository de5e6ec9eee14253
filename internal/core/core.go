// Package core is the simulator's system layer plus the paper's graph-based
// execution engine (Section IV-A): each NPU independently consumes its
// execution-trace graph, issuing compute nodes to the roofline model,
// memory nodes to the memory API, and communication nodes to the collective
// engine or the point-to-point network API. Dependent nodes become ready
// when all parents complete; NPUs run different operations at the same
// time, which is what enables pipeline parallelism and other asymmetric
// strategies.
//
// The engine also implements the collective rendezvous protocol: the k-th
// collective issued on a communicator instance by each member NPU is the
// same logical collective, and it launches once every member has reached
// it — synchronous-training semantics.
//
// Execution runs on integer indices. Start takes one validated et.Plan per
// distinct node list from et.Trace.Plans, so this package never reads Deps
// or resolves a node ID, and interns each communicator span layout once. A
// communicator instance is an (origin rank, layout) pair resolved per
// simulated rank at Start, so issuing a node touches only slices: no map,
// no string key and no allocation per NPU issue.
//
// What Start costs beyond the simulated ranks is per distinct list and
// layout, plus one plan pointer per rank. It checks each layout once for every
// rank (collective.CheckLayout, whose cost grows with the dimension
// sizes), and walks the ranks in order only when a layout fails somewhere,
// to name the first rank where a layout it uses fails and the first node
// using that layout. Plans and Start look up a rank's plan only where it
// differs from the previous rank's. Folded GPT-3 starts in 76–88 µs on
// 4,096 NPUs and 3.9–4.2 ms on 262,144 (BenchmarkStartGPT3, 2-core VM).
//
// A trace with Iterations > 1 is the paper's training loop: each NPU
// re-executes its one plan. When an NPU's last node of an iteration
// completes, its in-degrees are copied back from the plan and its roots
// issued again, exactly when an unrolled trace's next-iteration entry
// nodes would become ready. Point-to-point tags need no remapping: a rank
// starts iteration k+1 only after its iteration-k sends have left and its
// receives have matched, and each (src, dst, tag) channel delivers in send
// order, so FIFO matching pairs the messages of one iteration.
//
// # Folding symmetric runs
//
// Start finds the largest block F of ranks, a product of the innermost
// dimension sizes, in which every rank does exactly what the block's first
// rank does, and simulates only the ranks r ≡ 0 (mod F). Four conditions
// make the fold exact:
//
//  1. Nothing outside the trace tells the ranks of a block apart: no flow
//     controller or remote arbiter is attached (a cluster arbitrates each
//     job's flows and remote accesses against other jobs'), and the
//     scenario has no fail_npu or straggle_npu event, each of which acts
//     on one rank. Link events act on a whole dimension, so they fold.
//  2. No plan holds a send or a receive, so no message's peer and traffic
//     need mapping onto the simulated ranks.
//  3. Every rank r runs the same plan as rank r - r mod F.
//  4. No rank has collectives on two different groups in flight at once:
//     every plan runs all its collectives on whole-machine groups, or
//     orders all of them in one dependency chain. Two collectives a rank
//     issues at one instant on overlapping groups claim a shared link in
//     an order that depends on the rank, so ranks running one plan finish
//     at different times and no simulated rank could stand for them all.
//     And where blocks run different plans (F below the NPU count), no
//     group but the whole machine may leave a block: such a group
//     completes its instances one after another, each instance's members
//     in every block it spans, so the blocks' next collectives start, and
//     finish, interleaved, which a log of whole blocks cannot reproduce.
//
// The conditions are checked cheapest first, (4) once per distinct plan in
// one pass in topological order; F = 1 simulates every rank. A folded run
// still checks its layouts for every rank. It gives each communicator
// instance only its m simulated members, which reserve only their own
// links, and counts the instance's link-set traffic for m·F ranks. It
// sizes an in-switch collective's shard by the group, not by the simulated
// members, counts and logs each finished collective F·m/k times for an
// instance of k members (the instances the blocks of its members hold),
// and scales a deadlock report's pending-node count by F. Finalize copies
// rank r - r mod F's breakdown, and its intervals when the timeline is
// recorded, to rank r. Every RunStats field is then what simulating every
// rank gives, except Events, the events actually fired, and
// SimulatedRanks, which says how far the run folded.
package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"repro/internal/collective"
	"repro/internal/compute"
	"repro/internal/et"
	"repro/internal/memory"
	"repro/internal/network"
	"repro/internal/scenario"
	"repro/internal/timeline"
	"repro/internal/topology"
	"repro/internal/units"
)

// Config assembles a simulated machine.
type Config struct {
	Topology *topology.Topology
	Compute  compute.Model
	Memory   memory.System
	// Policy selects the collective chunk scheduler (Baseline or Themis).
	Policy collective.Policy
	// Chunks is the collective pipelining depth (default 64).
	Chunks int
	// Memo is ignored: every collective runs live.
	//
	// Deprecated: Memo has no effect and will be removed.
	Memo *collective.Memo
	// CollectiveLogLimit caps how many collective results are retained in
	// the run stats' log: 0 selects the default of 1024, and a negative
	// limit keeps none. RunStats.CollectiveCount counts every collective
	// whatever the limit.
	CollectiveLogLimit int
	// RecordTimeline retains each NPU's activity intervals in the run
	// stats (for Chrome-trace export). Off by default: a large run
	// produces one interval per activity change per NPU.
	RecordTimeline bool
	// ModelTransitCongestion enables first-order congestion on the
	// analytical backend: ring point-to-point messages occupy every link
	// they transit (the paper's stated future work). Off by default —
	// endpoint charging is exact for congestion-free hierarchical
	// collectives.
	ModelTransitCongestion bool
	// FlowController, when non-nil, arbitrates this simulator's network
	// flows against other simulators space-sharing the same physical
	// fabric — the multi-job cluster layer. Nil keeps the backend's
	// allocation-free isolated behavior.
	FlowController network.FlowController
	// RemoteArbiter, when non-nil, scales remote-memory access (and
	// in-switch collective) durations by cross-job memory-pool contention.
	RemoteArbiter RemoteArbiter
	// Scenario, when non-nil, injects timed infrastructure perturbations —
	// link degradation/restoration, link/NPU failures, compute stragglers —
	// as events on the simulator's timeline, with times relative to the
	// trace's release. A scenario with no events leaves the run
	// byte-identical to a clean one.
	Scenario *scenario.Scenario
}

// RemoteArbiter arbitrates a remote memory pool shared by several
// co-scheduled simulators. RemoteStarted is called when a remote access
// begins and returns the contention factor (>= 1) multiplying its
// duration; RemoteFinished is called when the access completes. Both run
// on the single-threaded event engine.
type RemoteArbiter interface {
	RemoteStarted() float64
	RemoteFinished()
}

// Activity labels a timeline interval's attribution category.
type Activity string

// Timeline activity categories (matching the Breakdown fields).
const (
	ActCompute   Activity = "compute"
	ActComm      Activity = "comm"
	ActRemoteMem Activity = "remote-mem"
	ActLocalMem  Activity = "local-mem"
	ActIdle      Activity = "idle"
)

// Interval is one attributed span of an NPU's timeline.
type Interval struct {
	NPU      int
	Activity Activity
	Start    units.Time
	End      units.Time
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Topology == nil {
		return fmt.Errorf("core: config needs a topology")
	}
	if err := c.Compute.Validate(); err != nil {
		return err
	}
	if err := c.Memory.Validate(); err != nil {
		return err
	}
	if c.Chunks < 0 {
		return fmt.Errorf("core: negative chunk count")
	}
	if c.Scenario != nil {
		if err := c.Scenario.Validate(c.Topology.NumNPUs(), c.Topology.NumDims()); err != nil {
			return err
		}
	}
	return nil
}

// Breakdown is the per-NPU exposed-time attribution of Fig. 11: every
// instant of the run is attributed to exactly one category, with compute
// hiding communication, communication hiding memory, and remote memory
// hiding local memory.
type Breakdown struct {
	Compute          units.Time
	ExposedComm      units.Time
	ExposedRemoteMem units.Time
	ExposedLocalMem  units.Time
	Idle             units.Time
}

// Total returns the sum of all categories (the NPU's wall-clock span).
func (b Breakdown) Total() units.Time {
	return b.Compute + b.ExposedComm + b.ExposedRemoteMem + b.ExposedLocalMem + b.Idle
}

// RunStats is the result of one simulated execution.
type RunStats struct {
	// Makespan is the end-to-end simulated runtime.
	Makespan units.Time
	// PerNPU holds each NPU's exposed-time breakdown.
	PerNPU []Breakdown
	// Collectives logs completed collectives, at most
	// Config.CollectiveLogLimit of them.
	Collectives []collective.Result
	// CollectiveCount is the number of collectives that completed, through
	// the fabric or in-switch.
	CollectiveCount int
	// TrafficPerDim is the per-NPU mean sent+received bytes per physical
	// dimension across the whole run.
	TrafficPerDim []units.ByteSize
	// Events is the number of discrete events executed. A folded run fires
	// only its simulated ranks' events, so it counts fewer than the same
	// run unfolded; every other field is the same either way.
	Events uint64
	// SimulatedRanks is the number of ranks the run simulated: the NPU
	// count divided by the block each simulated rank stood for, or the NPU
	// count when the run did not fold.
	SimulatedRanks int
	// Timeline holds each NPU's attributed activity intervals when
	// Config.RecordTimeline is set (idle spans are omitted).
	Timeline []Interval
}

// MeanBreakdown averages the per-NPU breakdowns, each field rounded down.
// Summing quotients and remainders by the NPU count n apart keeps it exact
// where a field's total passes the int64 range; the remainders stay below
// n², which fits at the topology's 2^24-NPU cap.
func (s RunStats) MeanBreakdown() Breakdown {
	n := units.Time(len(s.PerNPU))
	if n == 0 {
		return Breakdown{}
	}
	var q, r [5]units.Time
	for _, b := range s.PerNPU {
		for i, v := range [5]units.Time{b.Compute, b.ExposedComm, b.ExposedRemoteMem, b.ExposedLocalMem, b.Idle} {
			q[i] += v / n
			r[i] += v % n
		}
	}
	for i := range q {
		q[i] += r[i] / n
	}
	return Breakdown{Compute: q[0], ExposedComm: q[1], ExposedRemoteMem: q[2], ExposedLocalMem: q[3], Idle: q[4]}
}

// Simulator executes traces over a configured machine. A Simulator is
// single-use: construct, Run once, read stats. Several simulators may
// share one timeline engine (NewSimulatorOn) to model co-scheduled jobs;
// each keeps its own network backend, collective engine and trace state.
type Simulator struct {
	cfg  Config
	eng  *timeline.Engine
	net  *network.Backend
	coll *collective.Engine

	// npus holds the simulated ranks' state, rank r at npus[r/fold]. fold
	// is the block of ranks one simulated rank stands for (see the package
	// doc); 1 simulates every rank. unfolded forces fold 1, so tests can
	// compare a folded run with its unfolded twin.
	npus     []npuState
	fold     int
	unfolded bool

	// freeOps recycles node completion events.
	freeOps []*nodeOp

	collLog []collective.Result
	nColl   int
	// remaining counts the simulated ranks' nodes still to complete over
	// every iteration; left, allocated only for a trace with several
	// iterations, counts them per simulated rank.
	remaining int
	left      []int
	// err is the first collective launch failure; Finalize reports it.
	err error

	// straggle maps each straggling NPU to the compute-time multiplier a
	// scenario event set; it is nil while no NPU straggles, and a factor
	// of 1 deletes the NPU's entry.
	straggle map[int]float64

	// startAt is the simulated time the trace was released (job arrival);
	// finished is when its last node completed.
	startAt  units.Time
	finished units.Time
}

// graphPlan is one distinct node list's compiled plan plus its communicator
// layouts. It is immutable and shared by every rank whose graph uses the
// list; nodes are addressed by their position in the list.
type graphPlan struct {
	*et.Plan
	// slot maps a communicator node's position to the plan-local index of
	// its layout (-1 for every other kind); layouts maps that index to the
	// interned layout id.
	slot    []int32
	layouts []int32
}

// instanceKey names a communicator instance: its lowest member rank and its
// layout id. A layout is an interned communicator shape: the resolved span
// list plus whether the collective is fused in-switch (an in-switch
// collective never pairs with a fabric one over the same spans).
type instanceKey struct {
	origin int
	layout int32
}

// groupInstance is one communicator instance. Its members issue the
// instance's collectives in the same per-member sequence, so they launch in
// sequence order: open holds the collectives some member has reached but
// not every member, oldest (sequence number base) first. members are the
// instance's simulated members, and links is their registered link set on
// the network backend, the machine set for an unfolded whole-machine
// instance. size is the group's member count, simulated or not, and reps
// the number of instances the instance stands for in a folded run (1
// unfolded). free recycles completed collectives' records.
type groupInstance struct {
	group   collective.Group
	members []int
	links   *network.LinkSet
	size    int
	reps    int
	open    []*pendingCollective
	free    []*pendingCollective
	base    int32
}

// pendingCollective is one logical collective awaiting its members; nodes
// holds each member's node position, indexed by member position. Records
// are recycled through their instance's free list once the collective
// completes, so a rendezvous allocates nothing in steady state.
type pendingCollective struct {
	s       *Simulator
	inst    *groupInstance
	arrived int
	nodes   []int32
	// done is p.finish, bound once per record so that launching a
	// collective builds no completion closure.
	done func(collective.Result)
}

// newPending takes a recycled record from the instance's free list, or
// allocates one.
func (s *Simulator) newPending(inst *groupInstance) *pendingCollective {
	if n := len(inst.free); n > 0 {
		p := inst.free[n-1]
		inst.free = inst.free[:n-1]
		return p
	}
	p := &pendingCollective{s: s, inst: inst, nodes: make([]int32, len(inst.members))}
	p.done = p.finish
	return p
}

// finish completes every member of a launched collective in ascending rank
// order, counts and logs the result once per instance the instance stands
// for, and recycles the record.
func (p *pendingCollective) finish(res collective.Result) {
	s, inst := p.s, p.inst
	for i, rank := range inst.members {
		member := &s.npus[rank/s.fold]
		s.markFree(member, &member.nComm)
		s.complete(member, p.nodes[i])
	}
	s.nColl += inst.reps
	for r := 0; r < inst.reps && len(s.collLog) < s.cfg.CollectiveLogLimit; r++ {
		s.collLog = append(s.collLog, res)
	}
	// Recycle only after the loop: completing a member can issue the
	// instance's next collective, which must not receive this record while
	// its nodes are still being read.
	p.arrived = 0
	inst.free = append(inst.free, p)
}

// rankSlot is one rank's view of a layout its plan uses: the instance the
// rank belongs to and how many collectives it has issued on it.
type rankSlot struct {
	inst *groupInstance
	seq  int32
}

// In-degree sentinels: a node that has been dispatched to its layer, and a
// node that has completed.
const (
	issuedMark int32 = -1
	doneMark   int32 = -2
)

type npuState struct {
	rank int
	plan *graphPlan
	// indeg is the remaining dependency count per plan position, or a mark.
	indeg []int32
	// slots is indexed by the plan-local layout index.
	slots []rankSlot

	// Activity counters for exposed-time attribution.
	nCompute, nComm, nRemote, nLocal int
	lastTouch                        units.Time
	breakdown                        Breakdown

	// timeline accumulates attributed intervals when recording is on;
	// contiguous same-activity intervals are merged as they are appended.
	timeline  []Interval
	recording bool
}

// NewSimulator builds a simulator for the given machine configuration,
// driven by its own private event engine.
func NewSimulator(cfg Config) (*Simulator, error) {
	return NewSimulatorOn(timeline.New(), cfg)
}

// NewSimulatorOn builds a simulator driven by an existing engine, so
// several simulators — the jobs of a multi-tenant cluster — can interleave
// on one shared timeline. The caller runs the engine itself and collects
// each simulator's statistics with Finalize.
func NewSimulatorOn(eng *timeline.Engine, cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.CollectiveLogLimit == 0 {
		cfg.CollectiveLogLimit = 1024
	}
	net := network.NewBackend(eng, cfg.Topology)
	net.SetTransitCharging(cfg.ModelTransitCongestion)
	net.SetFlowController(cfg.FlowController)
	coll := collective.NewEngine(net, cfg.Policy, cfg.Chunks)
	return &Simulator{cfg: cfg, eng: eng, net: net, coll: coll}, nil
}

// Run executes the trace to completion on the simulator's engine and
// returns the run statistics — the single-job path.
func (s *Simulator) Run(trace *et.Trace) (*RunStats, error) {
	if err := s.Start(trace, s.eng.Now()); err != nil {
		return nil, err
	}
	if _, err := s.eng.Run(); err != nil {
		return nil, err
	}
	return s.Finalize()
}

// Start validates the trace, builds the dependency state and releases the
// initially ready nodes at simulated time `at` (the job's arrival). When
// `at` equals the engine's current clock the nodes are issued immediately,
// preserving the isolated-run event order exactly; a later arrival is
// scheduled as a timeline event. The caller then runs the shared engine
// and calls Finalize.
func (s *Simulator) Start(trace *et.Trace, at units.Time) error {
	if s.npus != nil {
		return fmt.Errorf("core: simulator already started (single-use)")
	}
	plans, err := trace.Plans()
	if err != nil {
		return err
	}
	if trace.NumNPUs != s.cfg.Topology.NumNPUs() {
		return fmt.Errorf("core: trace is for %d NPUs but topology has %d",
			trace.NumNPUs, s.cfg.Topology.NumNPUs())
	}
	if at < s.eng.Now() {
		return fmt.Errorf("core: start time %v is in the engine's past (now %v)", at, s.eng.Now())
	}
	if err := s.compile(trace, plans, at); err != nil {
		return err
	}
	s.startAt = at

	// Schedule scenario events before the release so perturbations due at
	// the release instant apply before the first nodes issue — a t=0
	// straggler must already slow the job's first compute operators.
	if s.cfg.Scenario != nil {
		for _, ev := range s.cfg.Scenario.Events {
			ev := ev
			if fireAt := at + ev.At; fireAt > s.eng.Now() {
				s.eng.ScheduleAt(fireAt, func() { s.applyScenarioEvent(ev) })
			} else {
				s.applyScenarioEvent(ev)
			}
		}
	}

	if at == s.eng.Now() {
		s.release()
	} else {
		s.eng.ScheduleAt(at, s.release)
	}
	return nil
}

// compile builds the execution state from the trace's plans, indexed by
// rank: the communicator layouts of each distinct plan, one interned
// layout per distinct communicator shape, the fold, and each simulated
// rank's communicator instances, checking each layout against every rank
// that uses it, simulated or not (checkLayouts). It sets the simulator's
// state only when the whole trace checks out.
func (s *Simulator) compile(trace *et.Trace, plans []*et.Plan, at units.Time) error {
	top := s.cfg.Topology
	full := collective.FullMachine(top).Spans
	var layouts [][]collective.Span
	layoutIDs := make(map[string]int32)
	var key []byte
	// internLayout runs once per communicator node of each distinct list,
	// never per rank. It keys a layout by InSwitch and the resolved spans,
	// so a nil group and explicit whole-machine spans share one layout;
	// the key is built in one reused buffer, and spans are copied only for
	// a new layout.
	internLayout := func(n *et.Node) int32 {
		var group []et.SpanRef
		if n.Group != nil {
			group = n.Group.Spans
		}
		key = strconv.AppendBool(key[:0], n.InSwitch)
		if len(group) == 0 {
			for _, sp := range full {
				key = appendSpanKey(key, sp)
			}
		}
		for _, sp := range group {
			key = appendSpanKey(key, collective.Span(sp))
		}
		if id, ok := layoutIDs[string(key)]; ok {
			return id
		}
		spans := full
		if len(group) > 0 {
			spans = make([]collective.Span, len(group))
			for i, sp := range group {
				spans[i] = collective.Span(sp)
			}
		}
		id := int32(len(layouts))
		layoutIDs[string(key)] = id
		layouts = append(layouts, spans)
		return id
	}

	layoutsOf := make(map[*et.Plan]*graphPlan)
	var distinct []*graphPlan
	for i, ep := range plans {
		if i == 0 || ep != plans[i-1] { // consecutive ranks mostly share a plan
			if layoutsOf[ep] == nil {
				p := planLayouts(ep, internLayout)
				layoutsOf[ep] = p
				distinct = append(distinct, p)
			}
		}
	}
	nodeTotal := trace.NodeCount()
	iters := max(trace.Iterations, 1)
	switch {
	case trace.Iterations < 0:
		return fmt.Errorf("core: trace has a negative iteration count %d", trace.Iterations)
	case nodeTotal > math.MaxInt/iters:
		return fmt.Errorf("core: %d nodes x %d iterations overflows the node count", nodeTotal, iters)
	}
	if err := checkLayouts(top, plans, layoutsOf, layouts); err != nil {
		return err
	}

	fold := s.foldBlock(plans, distinct, layouts)
	npus := make([]npuState, len(plans)/fold)
	var simTotal, slotTotal int
	var p *graphPlan
	for i := range npus {
		if ep := plans[i*fold]; p == nil || ep != p.Plan {
			p = layoutsOf[ep]
		}
		npus[i].plan = p
		simTotal += len(p.Nodes())
		slotTotal += len(p.layouts)
	}
	// Every simulated rank's in-degrees and layout slots are windows of two
	// shared arrays, so set-up allocates per plan, not per rank.
	indeg := make([]int32, simTotal)
	slots := make([]rankSlot, slotTotal)
	instances := make(map[instanceKey]*groupInstance)
	for i := range npus {
		st := &npus[i]
		p := st.plan
		st.rank = i * fold
		st.lastTouch = at
		st.recording = s.cfg.RecordTimeline
		n := len(p.Nodes())
		st.indeg, indeg = indeg[:n:n], indeg[n:]
		copy(st.indeg, p.InDegrees())
		st.slots, slots = slots[:len(p.layouts):len(p.layouts)], slots[len(p.layouts):]
		for li, id := range p.layouts {
			g := collective.Group{Spans: layouts[id], Base: st.rank}
			key := instanceKey{origin: g.Origin(top), layout: id}
			inst := instances[key]
			if inst == nil {
				g.Base = key.origin
				inst = s.newInstance(g, fold)
				instances[key] = inst
			}
			st.slots[li].inst = inst
		}
	}
	if iters > 1 {
		s.left = make([]int, len(npus))
		for i := range npus {
			s.left[i] = len(npus[i].indeg) * iters
		}
	}
	s.npus = npus
	s.fold = fold
	s.remaining = simTotal * iters
	return nil
}

// checkLayouts checks every rank's layouts, and names the first rank, in
// rank order, that fails one and the first node using that layout. plans
// holds each rank's plan and layoutsOf each plan's layouts. A layout that
// holds at every rank holds at the ranks that use it, so the ranks are
// walked only when some layout fails somewhere.
func checkLayouts(top *topology.Topology, plans []*et.Plan, layoutsOf map[*et.Plan]*graphPlan, layouts [][]collective.Span) error {
	if !slices.ContainsFunc(layouts, func(spans []collective.Span) bool {
		return collective.CheckLayout(top, spans) != nil
	}) {
		return nil
	}
	for rank, ep := range plans {
		p := layoutsOf[ep]
		for i, id := range p.layouts {
			if err := collective.CheckSpans(top, layouts[id], rank); err != nil {
				first := slices.Index(p.slot, int32(i)) // the first node using the layout
				return fmt.Errorf("core: npu %d node %d: %w", rank, p.Nodes()[first].ID, err)
			}
		}
	}
	return nil
}

// newInstance registers the communicator instance g, whose Base is its
// origin, on the network backend. In a run folded by blocks of fold ranks
// the instance holds only its simulated members, the m members that the
// spans outside the block reach from the origin. It stands for the fold·m/k
// instances of k members that the blocks of its members hold, and its link
// set counts each member's traffic for fold ranks. Unfolded, every span is
// outside the block of one rank, so the instance holds all its members.
func (s *Simulator) newInstance(g collective.Group, fold int) *groupInstance {
	top := s.cfg.Topology
	outer := collective.Group{Base: g.Base}
	for _, sp := range g.Spans {
		if top.DimStride(sp.Phys) >= fold {
			outer.Spans = append(outer.Spans, sp)
		}
	}
	members := outer.Members(top)
	size := g.Size()
	return &groupInstance{
		group:   g,
		members: members,
		links:   s.net.NewWeightedLinkSet(members, fold),
		size:    size,
		reps:    fold * len(members) / size,
	}
}

// foldBlock returns the block F of ranks one simulated rank can stand for
// exactly: the largest product of the innermost dimension sizes for which
// the package doc's four conditions hold, checked cheapest first, or 1 if
// the run cannot fold.
func (s *Simulator) foldBlock(plans []*et.Plan, distinct []*graphPlan, layouts [][]collective.Span) int {
	// (1) Nothing outside the trace treats ranks of a block differently.
	if s.unfolded || s.cfg.FlowController != nil || s.cfg.RemoteArbiter != nil {
		return 1
	}
	if sc := s.cfg.Scenario; sc != nil {
		for _, ev := range sc.Events {
			if ev.Kind == scenario.FailNPU || ev.Kind == scenario.StraggleNPU {
				return 1
			}
		}
	}
	// (2) No point-to-point traffic.
	for _, p := range distinct {
		if p.HasP2P() {
			return 1
		}
	}
	// (3) Every change of plan, in rank order, starts a block.
	top := s.cfg.Topology
	dims, fold := top.NumDims(), top.NumNPUs()
	for r := 1; r < len(plans) && fold > 1; r++ {
		for plans[r] != plans[r-1] && r%fold != 0 {
			dims--
			fold = top.DimStride(dims)
		}
	}
	if fold == 1 {
		return 1
	}
	// (4) No rank runs two collectives at once on different groups, and
	// where blocks run different plans, no group but the whole machine
	// leaves a block.
	whole := make([]bool, len(layouts))
	for id, spans := range layouts {
		whole[id] = collective.Group{Spans: spans}.Size() == top.NumNPUs()
	}
	crosses := func(sp collective.Span) bool { return top.DimStride(sp.Phys) >= fold }
	for _, p := range distinct {
		if !p.tieFree(whole) {
			return 1
		}
		if len(distinct) == 1 {
			continue
		}
		for _, id := range p.layouts {
			if !whole[id] && slices.ContainsFunc(layouts[id], crosses) {
				return 1
			}
		}
	}
	return fold
}

// tieFree reports whether the plan runs all its collectives on
// whole-machine groups (whole, by layout id) or orders all of them in one
// dependency chain, so that a rank never has collectives on two different
// groups in flight at once. It visits the plan once in topological order,
// carrying to each node the length of the chain of collectives that
// precedes it: a collective extends the chain only if the chain's last
// collective precedes it.
func (p *graphPlan) tieFree(whole []bool) bool {
	if !slices.ContainsFunc(p.slot, func(li int32) bool { return li >= 0 && !whole[p.layouts[li]] }) {
		return true
	}
	indeg := slices.Clone(p.InDegrees())
	chain := make([]int32, len(indeg))
	ready := slices.Clone(p.Roots())
	var length int32
	for len(ready) > 0 {
		pos := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		if p.slot[pos] >= 0 {
			if chain[pos] != length {
				return false
			}
			length++
			chain[pos] = length
		}
		for _, c := range p.Dependents(pos) {
			chain[c] = max(chain[c], chain[pos])
			if indeg[c]--; indeg[c] == 0 {
				ready = append(ready, c)
			}
		}
	}
	return true
}

// appendSpanKey appends a span's three coordinates to a layout key.
func appendSpanKey(key []byte, sp collective.Span) []byte {
	key = strconv.AppendInt(append(key, ' '), int64(sp.Phys), 10)
	key = strconv.AppendInt(append(key, ','), int64(sp.K), 10)
	return strconv.AppendInt(append(key, ','), int64(sp.Stride), 10)
}

// planLayouts resolves each communicator node of one plan to its interned
// layout.
func planLayouts(ep *et.Plan, internLayout func(*et.Node) int32) *graphPlan {
	p := &graphPlan{Plan: ep, slot: make([]int32, len(ep.Nodes()))}
	nodes := ep.Nodes()
	for i := range nodes {
		nd := &nodes[i]
		p.slot[i] = -1
		if nd.Kind != et.KindComm {
			continue
		}
		id := internLayout(nd)
		li := int32(slices.Index(p.layouts, id)) // a plan uses few layouts
		if li < 0 {
			li = int32(len(p.layouts))
			p.layouts = append(p.layouts, id)
		}
		p.slot[i] = li
	}
	return p
}

// applyScenarioEvent dispatches one perturbation to the layer it targets.
// The network mutation hooks validate their arguments and degrade to no-ops
// on out-of-range targets, so a validated scenario can never panic here.
func (s *Simulator) applyScenarioEvent(ev scenario.Event) {
	switch ev.Kind {
	case scenario.DegradeLink:
		s.net.SetDimBandwidthScale(ev.Dim, ev.Factor)
	case scenario.RestoreLink:
		s.net.SetDimBandwidthScale(ev.Dim, 1)
	case scenario.FailLink:
		s.net.SetDimBandwidthScale(ev.Dim, scenario.FailedLinkResidual)
		if ev.Recovery > 0 {
			dim := ev.Dim
			s.eng.Schedule(ev.Recovery, func() { s.net.SetDimBandwidthScale(dim, 1) })
		}
	case scenario.FailNPU:
		s.net.StallNPULinks(ev.NPU, s.eng.Now()+ev.Recovery)
	case scenario.StraggleNPU:
		if ev.Factor == 1 {
			delete(s.straggle, ev.NPU)
			break
		}
		if s.straggle == nil {
			s.straggle = make(map[int]float64)
		}
		s.straggle[ev.NPU] = ev.Factor
	}
}

// release issues every rank's initially ready nodes.
func (s *Simulator) release() {
	for rank := range s.npus {
		s.releaseRoots(&s.npus[rank])
	}
}

// releaseRoots issues a rank's ready roots in ascending-ID order, which
// keeps a trace's simulated output independent of the order its node list
// is declared in.
func (s *Simulator) releaseRoots(st *npuState) {
	for _, pos := range st.plan.Roots() {
		if st.indeg[pos] == 0 {
			s.issue(st, pos)
		}
	}
}

// StartTime returns the simulated time the trace was released.
func (s *Simulator) StartTime() units.Time { return s.startAt }

// FinishTime returns the simulated time the last node completed; valid
// once every node has.
func (s *Simulator) FinishTime() units.Time { return s.finished }

// Finalize collects the run statistics after the engine has drained. The
// Makespan is the span from the trace's release to its last node's
// completion; on a shared engine, Events counts every event the engine
// fired, across all simulators driving it.
func (s *Simulator) Finalize() (*RunStats, error) {
	if s.npus == nil {
		return nil, fmt.Errorf("core: Finalize before Start")
	}
	if s.err != nil {
		return nil, s.err
	}
	if s.remaining > 0 {
		return nil, fmt.Errorf("core: simulation deadlocked with %d nodes pending (unmatched P2P or incomplete collective rendezvous); first stuck: %s",
			s.remaining*s.fold, s.describeStuck())
	}

	n := s.cfg.Topology.NumNPUs()
	stats := &RunStats{
		Makespan:        s.finished - s.startAt,
		PerNPU:          make([]Breakdown, n),
		Collectives:     s.collLog,
		CollectiveCount: s.nColl,
		Events:          s.eng.Fired(),
		SimulatedRanks:  len(s.npus),
	}
	for i := range s.npus {
		st := &s.npus[i]
		st.touch(s.finished)
		st.breakdown.Idle += s.finished - st.lastTouch
		st.lastTouch = s.finished
	}
	// Every rank of a block ran what its simulated rank ran.
	for rank := range stats.PerNPU {
		st := &s.npus[rank/s.fold]
		stats.PerNPU[rank] = st.breakdown
		if s.cfg.RecordTimeline {
			for _, iv := range st.timeline {
				iv.NPU = rank
				stats.Timeline = append(stats.Timeline, iv)
			}
		}
	}
	traffic := s.net.Stats().Traffic
	stats.TrafficPerDim = make([]units.ByteSize, len(traffic))
	for d, sum := range traffic {
		stats.TrafficPerDim[d] = sum / units.ByteSize(n)
	}
	return stats, nil
}

func (s *Simulator) describeStuck() string {
	// Prefer an issued-but-unfinished node (e.g. a receive whose sender
	// never arrived, or a collective missing members) over a node that was
	// never ready. Ranks and list positions are scanned in order, so the
	// report is the same on every run.
	for rank := range s.npus {
		st := &s.npus[rank]
		for pos, deg := range st.indeg {
			if deg == issuedMark {
				n := &st.plan.Nodes()[pos]
				return fmt.Sprintf("npu %d node %d (%s %s, in flight)", st.rank, n.ID, n.Kind, n.Name)
			}
		}
	}
	for rank := range s.npus {
		st := &s.npus[rank]
		for pos, deg := range st.indeg {
			if deg > 0 {
				n := &st.plan.Nodes()[pos]
				return fmt.Sprintf("npu %d node %d (%s %s, %d deps unmet)", st.rank, n.ID, n.Kind, n.Name, deg)
			}
		}
	}
	return "unknown"
}

// touch accumulates the attribution interval since the last state change.
// Precedence: compute > comm > remote memory > local memory > idle.
func (st *npuState) touch(now units.Time) {
	dt := now - st.lastTouch
	if dt <= 0 {
		st.lastTouch = now
		return
	}
	var act Activity
	switch {
	case st.nCompute > 0:
		st.breakdown.Compute += dt
		act = ActCompute
	case st.nComm > 0:
		st.breakdown.ExposedComm += dt
		act = ActComm
	case st.nRemote > 0:
		st.breakdown.ExposedRemoteMem += dt
		act = ActRemoteMem
	case st.nLocal > 0:
		st.breakdown.ExposedLocalMem += dt
		act = ActLocalMem
	default:
		st.breakdown.Idle += dt
		act = ActIdle
	}
	if st.recording && act != ActIdle {
		if n := len(st.timeline); n > 0 && st.timeline[n-1].Activity == act && st.timeline[n-1].End == st.lastTouch {
			st.timeline[n-1].End = now
		} else {
			st.timeline = append(st.timeline, Interval{
				NPU: st.rank, Activity: act, Start: st.lastTouch, End: now,
			})
		}
	}
	st.lastTouch = now
}

// issue dispatches a ready node to its layer.
func (s *Simulator) issue(st *npuState, pos int32) {
	st.indeg[pos] = issuedMark
	n := &st.plan.Nodes()[pos]
	switch n.Kind {
	case et.KindCompute:
		dur := s.cfg.Compute.OpTime(n.FLOPs, units.ByteSize(n.MemBytes))
		if f, ok := s.straggle[st.rank]; ok {
			dur = units.Time(float64(dur) * f)
		}
		s.runTimed(st, pos, dur, &st.nCompute, false)
	case et.KindMemory:
		loc := memory.Local
		counter := &st.nLocal
		if n.MemLocation == et.MemRemote {
			loc = memory.Remote
			counter = &st.nRemote
		}
		dur := s.cfg.Memory.AccessTime(loc, units.ByteSize(n.TensorBytes))
		remote := loc == memory.Remote && s.cfg.RemoteArbiter != nil
		if remote {
			// The access duration is stretched by the cross-job pool
			// contention at issue time; the arbiter is released on
			// completion.
			if f := s.cfg.RemoteArbiter.RemoteStarted(); f > 1 {
				dur = units.Time(float64(dur) * f)
			}
		}
		s.runTimed(st, pos, dur, counter, remote)
	case et.KindComm:
		s.issueCollective(st, pos)
	case et.KindSend:
		s.markBusy(st, &st.nComm)
		s.net.SimSend(st.rank, st.plan.Peer(n, st.rank), n.Tag, units.ByteSize(n.CommBytes), s.newOp(st, pos, &st.nComm, false))
	case et.KindRecv:
		// A receive is pure synchronization, so it runs under no activity
		// counter: the message's wire time is attributed to the sender's
		// link, and waiting for a peer that has not sent yet is idle time
		// (this is what makes pipeline bubbles visible in the breakdown).
		s.net.SimRecv(st.plan.Peer(n, st.rank), st.rank, n.Tag, s.newOp(st, pos, nil, false))
	default:
		panic(fmt.Sprintf("core: unknown node kind %q", n.Kind))
	}
}

// nodeOp is the completion event of a compute, memory, send or receive
// node. Ops are recycled through the simulator's free list, so issuing
// those nodes does not allocate.
type nodeOp struct {
	s   *Simulator
	st  *npuState
	pos int32
	// counter is the activity the node runs under; nil for a receive.
	counter *int
	// remote releases the cross-job pool arbiter on completion.
	remote bool
}

func (op *nodeOp) Act() {
	s, st, pos, counter := op.s, op.st, op.pos, op.counter
	if op.remote {
		s.cfg.RemoteArbiter.RemoteFinished()
	}
	*op = nodeOp{}
	s.freeOps = append(s.freeOps, op)
	st.touch(s.eng.Now())
	if counter != nil {
		*counter--
	}
	s.complete(st, pos)
}

// newOp takes a completion event for the node at pos from the free list, or
// allocates one.
func (s *Simulator) newOp(st *npuState, pos int32, counter *int, remote bool) *nodeOp {
	var op *nodeOp
	if n := len(s.freeOps); n > 0 {
		op = s.freeOps[n-1]
		s.freeOps = s.freeOps[:n-1]
	} else {
		op = new(nodeOp)
	}
	*op = nodeOp{s: s, st: st, pos: pos, counter: counter, remote: remote}
	return op
}

// runTimed executes a node with a fixed duration under an activity counter.
func (s *Simulator) runTimed(st *npuState, pos int32, dur units.Time, counter *int, remote bool) {
	s.markBusy(st, counter)
	s.eng.ScheduleActor(dur, s.newOp(st, pos, counter, remote))
}

func (s *Simulator) markBusy(st *npuState, counter *int) {
	st.touch(s.eng.Now())
	*counter++
}

func (s *Simulator) markFree(st *npuState, counter *int) {
	st.touch(s.eng.Now())
	*counter--
}

// issueCollective implements the rendezvous protocol: the rank's k-th
// collective on a communicator instance joins the instance's k-th logical
// collective, which launches when its last member arrives.
func (s *Simulator) issueCollective(st *npuState, pos int32) {
	slot := &st.slots[st.plan.slot[pos]]
	inst := slot.inst
	i := int(slot.seq - inst.base)
	slot.seq++
	if i == len(inst.open) {
		inst.open = append(inst.open, s.newPending(inst))
	}
	p := inst.open[i]
	p.nodes[sort.SearchInts(inst.members, st.rank)] = pos
	p.arrived++
	s.markBusy(st, &st.nComm) // waiting for peers counts as communication
	if p.arrived < len(inst.members) {
		return
	}
	// Collectives of one instance complete their rendezvous in sequence
	// order, so the full one is the oldest open one.
	copy(inst.open, inst.open[1:])
	inst.open[len(inst.open)-1] = nil
	inst.open = inst.open[:len(inst.open)-1]
	inst.base++
	s.launchCollective(p, &st.plan.Nodes()[pos])
}

func (s *Simulator) launchCollective(p *pendingCollective, n *et.Node) {
	if n.InSwitch && s.cfg.Memory.HasPool && s.cfg.Memory.Pool.SupportsInSwitchCollectives() {
		// Fused in-switch collective through the memory fabric: all
		// members complete together after the pipelined fabric time. The
		// pool model's W is the per-GPU pre-gather shard, so an
		// All-Gather whose members each end with CommBytes contributes
		// CommBytes/|group| per GPU (and symmetrically for the
		// reduce-on-store direction).
		shard := units.ByteSize(n.CommBytes) / units.ByteSize(p.inst.size)
		if shard < 1 {
			shard = 1
		}
		dur := s.cfg.Memory.Pool.InSwitchCollectiveTime(shard)
		arb := s.cfg.RemoteArbiter
		if arb != nil {
			// In-switch collectives stream through the shared pool fabric,
			// so they contend like any other remote access.
			if f := arb.RemoteStarted(); f > 1 {
				dur = units.Time(float64(dur) * f)
			}
		}
		start := s.eng.Now()
		s.eng.Schedule(dur, func() {
			if arb != nil {
				arb.RemoteFinished()
			}
			p.finish(collective.Result{
				Op:    mapCollective(n.Collective),
				Size:  units.ByteSize(n.CommBytes),
				Start: start,
				End:   s.eng.Now(),
			})
		})
		return
	}

	op := mapCollective(n.Collective)
	err := s.coll.Start(op, units.ByteSize(n.CommBytes), p.inst.group, p.inst.links, p.done)
	if err != nil && s.err == nil {
		// The members never complete; Finalize reports the failure.
		s.err = fmt.Errorf("core: %s %s: %w", n.Kind, n.Name, err)
	}
}

func mapCollective(c et.CollectiveType) collective.Op {
	switch c {
	case et.CollAllReduce:
		return collective.AllReduce
	case et.CollAllGather:
		return collective.AllGather
	case et.CollReduceScatter:
		return collective.ReduceScatter
	case et.CollAllToAll:
		return collective.AllToAll
	default:
		panic(fmt.Sprintf("core: unknown collective %q", c))
	}
}

// complete finishes a node and unlocks its children. The rank's last node
// of an iteration has none; if iterations remain, completing it restarts
// the rank's plan.
func (s *Simulator) complete(st *npuState, pos int32) {
	st.indeg[pos] = doneMark
	s.remaining--
	if s.remaining == 0 {
		s.finished = s.eng.Now()
	}
	if s.left != nil {
		i := st.rank / s.fold
		s.left[i]--
		if left := s.left[i]; left > 0 && left%len(st.indeg) == 0 {
			copy(st.indeg, st.plan.InDegrees())
			s.releaseRoots(st)
			return
		}
	}
	for _, c := range st.plan.Dependents(pos) {
		st.indeg[c]--
		if st.indeg[c] == 0 {
			s.issue(st, c)
		}
	}
}
