// Package network implements ASTRA-sim 2.0's analytical network backend
// (Section IV-C). Instead of simulating packets cycle by cycle, every
// message is costed with the paper's first-order equation
//
//	Time = LinkLatency × Hops + MessageSize / LinkBandwidth
//
// augmented with per-NPU, per-dimension link serialization: each NPU owns
// one shared-bandwidth link per topology dimension, and both the bytes it
// sends and the bytes it receives on that dimension serialize on that link.
// This reproduces ASTRA-sim's per-dimension traffic accounting (Table IV
// counts sent+received bytes per NPU) while remaining congestion-free for
// topology-aware hierarchical collectives, the regime the paper targets.
//
// A collective phase costs O(1) on every communicator instance. Each
// instance reserves through a LinkSet whose per-dimension floor stands in
// for its members' link times while the set owns those links (see
// phase.go); the whole machine is one more set, which owns every link from
// the start, so a whole-machine-only workload never allocates per-link
// state. Traffic is counted as one sent+received total per dimension,
// never per NPU.
//
// The backend also speaks the paper's NetworkAPI protocol (Snippet 2):
// SimSend / SimRecv pairs rendezvous on (src, dst, tag), and completion
// schedules the caller's timeline.Actors: the send's when the message has
// left its source, the receive's when it is matched to a delivered
// message.
//
// The backend is allocation-free per message in steady state: routes are
// computed arithmetically (no coordinate slices), transit paths are
// appended into one reused buffer, a routed send is one pooled event that
// delivers each of its legs, and the rendezvous keeps one pooled record per
// busy channel, which counts its unclaimed messages and queues its waiting
// receives. A record is found through an open-addressed table of the busy
// channels, probed linearly from a hash of (src, dst, tag), so the table is
// sized by the most channels busy at once, not by the channels a run ever
// uses.
package network

import (
	"fmt"

	"repro/internal/timeline"
	"repro/internal/topology"
	"repro/internal/units"
)

// Backend is the analytical network backend.
type Backend struct {
	eng *timeline.Engine
	top *topology.Topology

	// Link occupancy is kept per link set plus an optional per-link
	// overlay, so collective phases cost O(1) instead of O(group) per
	// phase. A link's free time is the later of two values:
	//
	//   - linkFree[npu*dims+dim], which overlays individual point-to-point
	//     traffic and stalls.
	//   - the floor of linkOwner's set: the LinkSet that last reserved the
	//     link in a phase, an index into sets. sets[0] is the machine set,
	//     so a zero entry means the machine owns the link.
	//
	// Both per-link arrays are allocated on the first per-link write or
	// subset-phase claim; until then every link is the machine's.
	linkFree   []units.Time
	linkOwner  []int32
	sets       []*LinkSet
	npus, dims int

	// bw[dim] caches each dimension's effective bandwidth, so a reservation
	// makes no dimension-model call.
	bw []units.Bandwidth

	// chans is the rendezvous for SimSend/SimRecv matching: the table of
	// every (src, dst, tag) channel that holds an unclaimed message or a
	// waiting receive, with its record. A channel that holds neither is
	// dropped from the table.
	chans chanTable

	// Free lists for the per-message hot-path objects (channels and legRuns
	// keep their slices across reuse, so neither needs a slice pool).
	channels  []*channel
	legRuns   []*legRun
	flowDones []*flowDone

	// path is chargeLinks's reused buffer of the positions it charges.
	path []int

	// chargeTransit enables first-order congestion modeling: ring
	// messages occupy every transit link, not just the endpoints.
	chargeTransit bool

	// fc, when non-nil, arbitrates this backend's flows against flows on
	// other backends sharing the same physical fabric (the multi-job
	// cluster layer). Nil — the default — costs nothing on the hot path.
	fc FlowController

	// bwScale[dim], when allocated, scales each dimension's effective link
	// bandwidth (the scenario layer's degradation primitive); nil means
	// every dimension runs clean.
	bwScale []float64

	stats Stats
}

type matchKey struct {
	src, dst, tag int
}

// hash mixes all three fields by multiplication, then folds the product's
// well-mixed high half into the low bits that index the table.
func (k matchKey) hash() uint64 {
	const m = 0x9e3779b97f4a7c15 // 2^64 / golden ratio, odd
	h := (uint64(k.src)*m ^ uint64(k.dst)) * m
	h = (h ^ uint64(k.tag)) * m
	return h ^ h>>32
}

// channel is one (src, dst, tag) rendezvous: the count of delivered
// messages no receive has claimed, and the FIFO of posted receives no
// message has matched. At most one of the two is non-empty. Popping
// advances head instead of reslicing, so the backing array survives intact
// and returns to the pool with the record.
type channel struct {
	unclaimed int
	waiting   []timeline.Actor
	head      int
}

// chanTable maps each busy channel's key to its record: slots is a
// power-of-two array probed linearly from the key's hash, and a slot with a
// nil record is empty. It doubles when an insert brings it past half load
// and never shrinks, so after warm-up inserts allocate nothing; a removal
// shifts the rest of its probe run back, so no tombstones build up however
// many channels open and close.
type chanTable struct {
	slots []chanSlot
	live  int
}

type chanSlot struct {
	k matchKey
	c *channel
}

// minChanSlots is the table's first size.
const minChanSlots = 16

// find returns the index of k's slot or, if k is not in the table, of the
// empty slot that ends its probe run.
func (t *chanTable) find(k matchKey) int {
	if t.slots == nil {
		t.slots = make([]chanSlot, minChanSlots)
	}
	mask := len(t.slots) - 1
	i := int(k.hash()) & mask
	for t.slots[i].c != nil && t.slots[i].k != k {
		i = (i + 1) & mask
	}
	return i
}

// insert files c under k in slot i, the empty slot find returned for k.
func (t *chanTable) insert(i int, k matchKey, c *channel) {
	t.slots[i] = chanSlot{k: k, c: c}
	t.live++
	if 2*t.live > len(t.slots) {
		old := t.slots
		t.slots = make([]chanSlot, 2*len(old))
		mask := len(t.slots) - 1
		for _, s := range old {
			if s.c != nil {
				j := int(s.k.hash()) & mask
				for t.slots[j].c != nil {
					j = (j + 1) & mask
				}
				t.slots[j] = s
			}
		}
	}
}

// remove empties slot i, which holds a key. Each later entry of the probe
// run whose home slot does not lie cyclically in (i, j], j its own slot,
// would no longer be reached from its home, so it moves back into the gap,
// which moves on to j.
func (t *chanTable) remove(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].c != nil; j = (j + 1) & mask {
		if home := int(t.slots[j].k.hash()) & mask; (j-home)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = chanSlot{}
	t.live--
}

// Stats holds the backend's traffic counters.
type Stats struct {
	// Traffic[d] is the sent plus received bytes on dimension d, summed
	// over all NPUs. Divided by the NPU count it is the paper's per-NPU
	// "message size per dimension" metric (Table IV).
	Traffic []units.ByteSize
}

// NewBackend builds an analytical backend over a topology, driven by the
// given event engine.
func NewBackend(eng *timeline.Engine, top *topology.Topology) *Backend {
	n, d := top.NumNPUs(), top.NumDims()
	b := &Backend{
		eng:  eng,
		top:  top,
		bw:   make([]units.Bandwidth, d),
		npus: n,
		dims: d,
	}
	for i, dim := range top.Dims {
		b.bw[i] = dim.EffectiveBandwidth()
	}
	b.stats.Traffic = make([]units.ByteSize, d)
	// The machine set owns every link from the start. The per-link arrays
	// are O(NPUs) state; they allocate lazily on first use so backend setup
	// — and whole-machine collective workloads, which never touch
	// individual links — stay O(dims).
	m := b.addSet(nil, n)
	for i := range m.owns {
		m.owns[i] = true
	}
	return b
}

// ensureLinks allocates the per-link overlay and owner table on the first
// per-link or subset-phase reservation. A zero entry means the link has no
// individual backlog and belongs to the machine set.
func (b *Backend) ensureLinks() {
	if b.linkFree == nil {
		b.linkFree = make([]units.Time, b.npus*b.dims)
		b.linkOwner = make([]int32, b.npus*b.dims)
	}
}

// FlowController observes dimension-level flow activity for cross-backend
// bandwidth arbitration: several backends space-sharing one physical
// fabric (co-scheduled training jobs) each report their flows to a shared
// controller, which answers with the fair-sharing contention factor. Both
// calls happen on the single-threaded event engine, so implementations
// need no locking.
type FlowController interface {
	// FlowStarted reports a transfer starting on the backend's dimension
	// dim. The returned factor (>= 1) divides the transfer's effective
	// bandwidth; 1 leaves the transfer untouched, bit for bit. tracked
	// reports whether the controller counted the flow: only a tracked
	// flow is owed a FlowFinished, so a dimension the controller does not
	// arbitrate costs no event.
	FlowStarted(dim int) (factor float64, tracked bool)
	// FlowFinished reports that a tracked transfer has left the network
	// (its links are free again).
	FlowFinished(dim int)
}

// SetFlowController attaches a cross-backend flow arbiter; nil (the
// default) disables arbitration and keeps the per-message hot path
// allocation-free and byte-identical to an isolated backend.
func (b *Backend) SetFlowController(fc FlowController) { b.fc = fc }

// transferTime is the serialization time of size bytes on dimension dim at
// its cached effective bandwidth, stretched by the dimension's bandwidth
// scale (scale 1, or a clean backend, leaves it untouched) and by the
// cross-backend contention factor (>= 1; 1 leaves it untouched).
func (b *Backend) transferTime(dim int, size units.ByteSize, factor float64) units.Time {
	dur := b.bw[dim].TransferTime(size)
	if b.bwScale != nil {
		if s := b.bwScale[dim]; s != 1 {
			dur = units.Time(float64(dur) / s)
		}
	}
	if factor > 1 {
		dur = units.Time(float64(dur) * factor)
	}
	return dur
}

// SetDimBandwidthScale sets dimension dim's effective bandwidth to scale ×
// nominal (0 < scale ≤ 1 degrades, 1 restores; larger-than-1 upgrades are
// allowed). The change applies to reservations made from now on — in-flight
// transfers keep the serialization time they were charged at issue, the
// standard fluid-model convention — so dimension aggregates are updated
// incrementally, never rescanned. Out-of-range dimensions and non-positive
// scales are ignored: scenario events degrade to no-ops rather than panic.
func (b *Backend) SetDimBandwidthScale(dim int, scale float64) {
	if dim < 0 || dim >= b.dims || scale <= 0 {
		return
	}
	if b.bwScale == nil {
		if scale == 1 {
			return
		}
		b.bwScale = make([]float64, b.dims)
		for i := range b.bwScale {
			b.bwScale[i] = 1
		}
	}
	b.bwScale[dim] = scale
}

// DimBandwidthScale returns dimension dim's current bandwidth scale
// (1 when clean or out of range).
func (b *Backend) DimBandwidthScale(dim int) float64 {
	if b.bwScale == nil || dim < 0 || dim >= b.dims {
		return 1
	}
	return b.bwScale[dim]
}

// StallNPULinks marks every link of one NPU busy until the given instant —
// the scenario layer's NPU-failure/recovery primitive. Traffic touching the
// NPU queues behind the stall, and synchronous collective phases gate on it
// as their slowest member, which is exactly how a hung rank manifests to
// the rest of a training job. The per-link overlay is bumped incrementally
// (O(dims) work); out-of-range NPUs are ignored so scenario events never
// panic.
func (b *Backend) StallNPULinks(npu int, until units.Time) {
	if npu < 0 || npu >= b.npus {
		return
	}
	b.ensureLinks()
	base := npu * b.dims
	for d := 0; d < b.dims; d++ {
		b.release(base+d, d)
		b.linkFree[base+d] = max(b.linkFree[base+d], until)
	}
}

// flowDone is a pooled typed event reporting a transfer's end to the flow
// controller — the "recompute on flow finish" half of fair sharing.
type flowDone struct {
	b   *Backend
	dim int
}

// Act implements timeline.Actor.
func (f *flowDone) Act() {
	b, dim := f.b, f.dim
	b.flowDones = append(b.flowDones, f)
	b.fc.FlowFinished(dim)
}

func (b *Backend) getFlowDone(dim int) *flowDone {
	if n := len(b.flowDones); n > 0 {
		f := b.flowDones[n-1]
		b.flowDones = b.flowDones[:n-1]
		f.dim = dim
		return f
	}
	return &flowDone{b: b, dim: dim}
}

// Topology returns the backend's topology.
func (b *Backend) Topology() *topology.Topology { return b.top }

// Stats returns a reference to the accumulated traffic counters.
func (b *Backend) Stats() *Stats { return &b.stats }

// Now returns the current simulated time.
func (b *Backend) Now() units.Time { return b.eng.Now() }

// ScheduleActor defers a typed event; hot model code (the collective
// engine's chunk waves) schedules through it without allocating.
func (b *Backend) ScheduleActor(delay units.Time, a timeline.Actor) { b.eng.ScheduleActor(delay, a) }

func (b *Backend) linkIdx(npu, dim int) int { return npu*b.dims + dim }

// chargeLinks charges size bytes' serialization time to the dimension-dim
// link of every NPU the message occupies, from src (at position srcPos) to
// position dstPos, and returns (src egress end, delivery-ready end). Each
// link is an independent FIFO queue (store-and-forward buffering), and the
// message is deliverable when its last link finishes. By default only the
// two endpoints are charged, so sent and received bytes share each NPU's
// per-dimension bandwidth (the paper's Table IV accounting) without
// artificial convoy-chains around rings; with transit charging on, so is
// every position on the model's transit path. factor (>= 1) is the
// cross-backend contention multiplier; 1 leaves the time untouched.
func (b *Backend) chargeLinks(src, dim, srcPos, dstPos int, size units.ByteSize, factor float64) (srcEnd, ready units.Time) {
	path := b.path[:0]
	if b.chargeTransit {
		d := b.top.Dims[dim]
		path = d.Kind.TransitPositions(path, srcPos, dstPos, d.Size)
	}
	if len(path) == 0 {
		path = append(path, srcPos, dstPos)
	}
	b.path = path
	dur := b.transferTime(dim, size, factor)
	b.ensureLinks()
	now := b.eng.Now()
	stride := b.top.DimStride(dim)
	base := src - srcPos*stride
	for h, pos := range path {
		li := b.linkIdx(base+pos*stride, dim)
		b.release(li, dim)
		end := max(b.linkFree[li], now) + dur
		b.linkFree[li] = end
		if h == 0 {
			srcEnd = end
		}
		ready = max(ready, end)
	}
	return srcEnd, ready
}

// SendOnDim transmits size bytes between two NPUs that differ only in
// dimension dim. sent, which may be nil, fires when src's link frees;
// delivered fires when the message lands at dst. The message-level
// collective reference (collective.RunMessageLevel) sends through it, one
// dimension at a time; it panics on endpoints that differ anywhere else.
func (b *Backend) SendOnDim(src, dst, dim int, size units.ByteSize, sent, delivered timeline.Actor) {
	if src == dst {
		panic(fmt.Sprintf("network: self-send on dim %d by NPU %d", dim, src))
	}
	// Walk both ranks' mixed-radix positions: validates that the endpoints
	// differ only in dim and extracts the dim positions without
	// materializing coordinate slices.
	var srcPos, dstPos int
	w := b.top.WalkPositions(src, dst)
	for i, sp, tp, ok := w.Next(); ok; i, sp, tp, ok = w.Next() {
		if i == dim {
			srcPos, dstPos = sp, tp
		} else if sp != tp {
			panic(fmt.Sprintf("network: SendOnDim(%d->%d, dim %d) endpoints differ in dim %d", src, dst, dim, i))
		}
	}
	b.sendOnDim(src, dim, srcPos, dstPos, size, sent, delivered)
}

// sendOnDim is SendOnDim once the endpoints are known to differ only in
// dim, src at position srcPos and the destination at dstPos; a routed
// send's legs, whose positions route already found, start here.
func (b *Backend) sendOnDim(src, dim, srcPos, dstPos int, size units.ByteSize, sent, delivered timeline.Actor) {
	d := b.top.Dims[dim]
	factor, tracked := 1.0, false
	if b.fc != nil {
		factor, tracked = b.fc.FlowStarted(dim)
	}
	srcEnd, ready := b.chargeLinks(src, dim, srcPos, dstPos, size, factor)
	if tracked {
		// The flow occupies its links until the transfer is deliverable;
		// report the end through a pooled typed event so fair shares are
		// recomputed the instant it frees.
		b.eng.ScheduleActorAt(ready, b.getFlowDone(dim))
	}
	arrive := ready + units.Time(d.Hops(srcPos, dstPos))*d.Latency

	b.stats.Traffic[dim] += 2 * size // sent by src, received by dst

	if sent != nil {
		b.eng.ScheduleActorAt(srcEnd, sent)
	}
	b.eng.ScheduleActorAt(arrive, delivered)
}

// SimSend transmits size bytes from src to dst with a message tag, using
// dimension-ordered routing: the message traverses, in ascending dimension
// order, every dimension where the endpoint coordinates differ, serializing
// on each dimension's links. sent, which may be nil, fires when the message
// has left src, at the first leg's egress end; the matching SimRecv's actor
// fires on delivery. A message to itself leaves and lands at once.
func (b *Backend) SimSend(src, dst, tag int, size units.ByteSize, sent timeline.Actor) {
	r := b.getLegRun()
	r.src, r.dst, r.tag, r.size, r.idx = src, dst, tag, size, 0
	r.legs = b.route(src, dst, r.legs[:0])
	if len(r.legs) > 0 {
		r.send(sent)
		return
	}
	if sent != nil {
		b.eng.ScheduleActor(0, sent)
	}
	b.eng.ScheduleActor(0, r)
}

// route appends the dimension-ordered hop legs from src to dst onto legs
// (the last leg ends at dst). Positions are walked digit by digit from the
// ranks, so routing allocates nothing beyond the caller's leg slice.
func (b *Backend) route(src, dst int, legs []hopLeg) []hopLeg {
	cur := src
	stride := 1
	w := b.top.WalkPositions(src, dst)
	for dim, sp, tp, ok := w.Next(); ok; dim, sp, tp, ok = w.Next() {
		if sp != tp {
			legs = append(legs, hopLeg{dim: dim, from: cur, fromPos: sp, toPos: tp})
			cur += (tp - sp) * stride
		}
		stride *= b.top.Dims[dim].Size
	}
	return legs
}

// hopLeg is one leg of a routed send: from NPU from, at position fromPos
// in dimension dim, to the NPU at position toPos that differs from it in
// dim alone.
type hopLeg struct {
	dim            int
	from           int
	fromPos, toPos int
}

// legRun is a pooled in-flight routed send: it owns its leg slice for the
// message's lifetime and is the delivery event of each leg in turn.
type legRun struct {
	b        *Backend
	src, dst int
	tag      int
	size     units.ByteSize
	legs     []hopLeg
	idx      int
}

func (b *Backend) getLegRun() *legRun {
	if n := len(b.legRuns); n > 0 {
		r := b.legRuns[n-1]
		b.legRuns = b.legRuns[:n-1]
		return r
	}
	return &legRun{b: b}
}

// send issues the current leg, with r as its delivery event.
func (r *legRun) send(sent timeline.Actor) {
	leg := r.legs[r.idx]
	r.b.sendOnDim(leg.from, leg.dim, leg.fromPos, leg.toPos, r.size, sent, r)
}

// Act implements timeline.Actor: one leg landed, so issue the next, or
// recycle the run and hand the message to the rendezvous.
func (r *legRun) Act() {
	r.idx++
	if r.idx < len(r.legs) {
		r.send(nil)
		return
	}
	b := r.b
	b.legRuns = append(b.legRuns, r)
	b.deliver(matchKey{src: r.src, dst: r.dst, tag: r.tag})
}

// SimRecv registers interest in a message (src, dst, tag). recv fires when
// the matching send has been delivered, inside the delivery's event;
// posting the receive after the message arrived fires it as its own
// zero-delay event.
func (b *Backend) SimRecv(src, dst, tag int, recv timeline.Actor) {
	if recv == nil {
		panic("network: SimRecv requires an actor")
	}
	k := matchKey{src: src, dst: dst, tag: tag}
	c := b.openChannel(k)
	if c.unclaimed > 0 {
		c.unclaimed--
		if c.unclaimed == 0 {
			b.closeChannel(k, c)
		}
		b.eng.ScheduleActor(0, recv)
		return
	}
	c.waiting = append(c.waiting, recv)
}

// deliver hands a delivered message to its channel's oldest waiting
// receive, or counts it as unclaimed.
func (b *Backend) deliver(k matchKey) {
	c := b.openChannel(k)
	if c.head == len(c.waiting) {
		c.unclaimed++
		return
	}
	recv := c.waiting[c.head]
	c.waiting[c.head] = nil // release for the GC while pooled
	c.head++
	if c.head == len(c.waiting) {
		b.closeChannel(k, c)
	}
	recv.Act()
}

// openChannel returns k's record or, if k is idle, files an empty one,
// recycled when one is pooled, under k.
func (b *Backend) openChannel(k matchKey) *channel {
	i := b.chans.find(k)
	if c := b.chans.slots[i].c; c != nil {
		return c
	}
	var c *channel
	if n := len(b.channels); n > 0 {
		c = b.channels[n-1]
		b.channels = b.channels[:n-1]
	} else {
		c = &channel{}
	}
	b.chans.insert(i, k, c)
	return c
}

// closeChannel drops k's record, which holds neither an unclaimed message
// nor a waiting receive, and pools it.
func (b *Backend) closeChannel(k matchKey, c *channel) {
	b.chans.remove(b.chans.find(k))
	c.waiting, c.head = c.waiting[:0], 0
	b.channels = append(b.channels, c)
}

// EstimateP2P returns the unloaded (no-queueing) latency of a point-to-point
// message, the closed-form version of the paper's equation.
func (b *Backend) EstimateP2P(src, dst int, size units.ByteSize) units.Time {
	if src == dst {
		return 0
	}
	var t units.Time
	w := b.top.WalkPositions(src, dst)
	for dim, sp, ep, ok := w.Next(); ok; dim, sp, ep, ok = w.Next() {
		if sp == ep {
			continue
		}
		d := b.top.Dims[dim]
		hops := d.Hops(sp, ep)
		t += units.Time(hops)*d.Latency + d.TransferTime(size)
	}
	return t
}
