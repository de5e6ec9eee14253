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
// A collective phase costs O(1) on every communicator instance. A
// whole-machine phase writes one per-dimension floor; a subset instance
// (an MP or DP group) registers a LinkSet whose per-dimension floor stands
// in for its members' link times while the set owns those links (see
// phase.go). Traffic is counted as one sent+received total per dimension,
// never per NPU.
//
// The package also exposes the paper's NetworkAPI protocol (Snippet 2):
// SimSend / SimRecv pairs rendezvous on (src, dst, tag) and invoke
// callbacks on completion, and SimSchedule defers arbitrary work.
//
// The backend is allocation-free per message in steady state: routes are
// computed arithmetically (no coordinate slices), multi-hop sends and
// deliveries run through pooled typed events, and the rendezvous queues
// recycle their small slices through per-backend free lists.
package network

import (
	"fmt"

	"repro/internal/timeline"
	"repro/internal/topology"
	"repro/internal/units"
)

// Message describes a delivered transmission, passed to receive callbacks.
type Message struct {
	Src, Dst int
	Tag      int
	Size     units.ByteSize
	// Dim is the topology dimension the message travelled on, or -1 for a
	// multi-dimension (dimension-ordered) route.
	Dim int
}

// API is the frontend-facing protocol of the paper's Snippet 2. The system
// layer is written against this interface so alternative backends (the
// cycle-level simulator in internal/garnet, test fakes) are drop-in.
type API interface {
	// SimSend transmits size bytes from src to dst with a message tag.
	// sentCB fires when the message has left src (its link is free again);
	// the matching SimRecv's callback fires on delivery. Either callback
	// may be nil.
	SimSend(src, dst, tag int, size units.ByteSize, sentCB func())
	// SimRecv registers interest in a message (src, dst, tag). recvCB
	// fires when the matching send has been delivered. Posting the recv
	// after the message arrived fires the callback immediately.
	SimRecv(src, dst, tag int, size units.ByteSize, recvCB func(Message))
	// SimSchedule runs fn after delay of simulated time.
	SimSchedule(delay units.Time, fn func())
	// Now returns the current simulated time.
	Now() units.Time
}

// Backend is the analytical network backend.
type Backend struct {
	eng *timeline.Engine
	top *topology.Topology

	// Link occupancy is kept as dimension-level aggregates plus an optional
	// per-link overlay, so collective phases cost O(1) instead of O(group)
	// per phase. A link's free time is the latest of three values:
	//
	//   - dimFloor[dim], a floor applied to every link of the dimension; a
	//     whole-machine phase writes it once.
	//   - linkFree[npu*dims+dim], allocated lazily on the first per-link
	//     reservation, which overlays individual point-to-point traffic.
	//   - the floor of linkOwner's set: the LinkSet that last reserved the
	//     link in a subset phase (1-based index into sets; 0 means none).
	//
	// dimMaxLink[dim] caches the latest per-link or set floor ever written,
	// so a full-dimension phase start never walks the overlay.
	linkFree   []units.Time
	linkOwner  []int32
	sets       []*LinkSet
	dimFloor   []units.Time
	dimMaxLink []units.Time
	npus, dims int

	// bw[dim] caches each dimension's effective bandwidth, so a reservation
	// makes no dimension-model call.
	bw []units.Bandwidth

	// Rendezvous state for SimSend/SimRecv matching. Queue objects and
	// their backing slices are recycled through the pools below.
	arrived map[matchKey]*msgQueue
	waiting map[matchKey]*cbQueue

	// Free lists for the per-message hot-path objects (legRuns keep their
	// leg slices across reuse, so routed sends need no separate slice pool).
	msgQueues  []*msgQueue
	cbQueues   []*cbQueue
	deliveries []*delivery
	legRuns    []*legRun
	flowDones  []*flowDone

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

// msgQueue is a FIFO of arrived-but-unclaimed messages for one match key.
// Popping advances head instead of reslicing so the backing array survives
// intact and returns to the pool when the queue drains.
type msgQueue struct {
	items []Message
	head  int
}

// cbQueue is the mirror FIFO of posted-but-unmatched receive callbacks.
type cbQueue struct {
	items []func(Message)
	head  int
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
		eng:        eng,
		top:        top,
		dimFloor:   make([]units.Time, d),
		dimMaxLink: make([]units.Time, d),
		bw:         make([]units.Bandwidth, d),
		npus:       n,
		dims:       d,
		arrived:    make(map[matchKey]*msgQueue),
		waiting:    make(map[matchKey]*cbQueue),
	}
	for i, dim := range top.Dims {
		b.bw[i] = dim.EffectiveBandwidth()
	}
	b.stats.Traffic = make([]units.ByteSize, d)
	// The per-link arrays are O(NPUs) state; they allocate lazily on first
	// use so backend setup — and whole-machine collective workloads, which
	// never touch individual links — stay O(dims).
	return b
}

// ensureLinks allocates the per-link overlay and owner table on the first
// per-link or subset-phase reservation. A zero entry means the link has no
// individual backlog beyond the dimension floor and no owning set.
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
// the rest of a training job. The per-link overlay and each dimension's
// cached maximum are bumped incrementally (O(dims) work); out-of-range NPUs
// are ignored so scenario events never panic.
func (b *Backend) StallNPULinks(npu int, until units.Time) {
	if npu < 0 || npu >= b.npus {
		return
	}
	b.ensureLinks()
	base := npu * b.dims
	for d := 0; d < b.dims; d++ {
		b.release(base+d, d)
		if b.linkFree[base+d] < until {
			b.linkFree[base+d] = until
		}
		if b.dimMaxLink[d] < until {
			b.dimMaxLink[d] = until
		}
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

// Now implements API.
func (b *Backend) Now() units.Time { return b.eng.Now() }

// SimSchedule implements API.
func (b *Backend) SimSchedule(delay units.Time, fn func()) { b.eng.Schedule(delay, fn) }

// ScheduleActor defers a typed event — the allocation-free SimSchedule used
// by hot model code (the collective engine's chunk waves).
func (b *Backend) ScheduleActor(delay units.Time, a timeline.Actor) { b.eng.ScheduleActor(delay, a) }

func (b *Backend) linkIdx(npu, dim int) int { return npu*b.dims + dim }

// reserve charges the serialization time of size bytes to both endpoint
// links of a dimension and returns (src egress end, delivery-ready end).
// Each link is an independent FIFO queue (store-and-forward buffering
// between endpoints): the transfer occupies the source link and the
// destination link for size/BW each, and is deliverable when the later of
// the two finishes. Charging both ends makes sent and received bytes share
// each NPU's per-dimension bandwidth, which is the accounting the paper's
// Table IV uses; queueing the ends independently avoids artificial
// convoy-chains around rings when every NPU sends and receives at once.
// factor (>= 1) is the cross-backend fair-sharing contention multiplier;
// 1 leaves the serialization time untouched.
func (b *Backend) reserve(src, dst, dim int, size units.ByteSize, factor float64) (units.Time, units.Time) {
	dur := b.transferTime(dim, size, factor)
	b.ensureLinks()
	now := b.eng.Now()
	if f := b.dimFloor[dim]; f > now {
		now = f // the dimension floor lower-bounds every link of the dim
	}
	si, di := b.linkIdx(src, dim), b.linkIdx(dst, dim)
	b.release(si, dim)
	b.release(di, dim)
	srcStart := b.linkFree[si]
	if srcStart < now {
		srcStart = now
	}
	dstStart := b.linkFree[di]
	if dstStart < now {
		dstStart = now
	}
	srcEnd, dstEnd := srcStart+dur, dstStart+dur
	b.linkFree[si] = srcEnd
	b.linkFree[di] = dstEnd
	if dstEnd > b.dimMaxLink[dim] {
		b.dimMaxLink[dim] = dstEnd
	}
	if srcEnd > b.dimMaxLink[dim] {
		b.dimMaxLink[dim] = srcEnd
	}
	ready := srcEnd
	if dstEnd > ready {
		ready = dstEnd
	}
	return srcEnd, ready
}

// delivery is a pooled typed event that hands a delivered message to its
// receiver — either a plain callback or an internal sink (a routed send's
// next leg). One pooled object replaces the per-message closure capture.
type delivery struct {
	b    *Backend
	msg  Message
	cb   func(Message)
	sink deliverySink
}

// deliverySink receives internal deliveries without a closure; *legRun and
// *Backend (final rendezvous matching) implement it.
type deliverySink interface {
	deliverMsg(Message)
}

// Act implements timeline.Actor.
func (d *delivery) Act() {
	b, msg, cb, sink := d.b, d.msg, d.cb, d.sink
	d.cb, d.sink = nil, nil
	b.deliveries = append(b.deliveries, d)
	switch {
	case sink != nil:
		sink.deliverMsg(msg)
	case cb != nil:
		cb(msg)
	}
}

func (b *Backend) getDelivery() *delivery {
	if n := len(b.deliveries); n > 0 {
		d := b.deliveries[n-1]
		b.deliveries = b.deliveries[:n-1]
		return d
	}
	return &delivery{b: b}
}

// SendOnDim transmits size bytes between two NPUs that differ only in
// dimension dim. sentCB fires when src's link frees; deliveredCB fires when
// the message lands at dst. This is the fast path used by collective
// algorithms, which by construction communicate one dimension at a time.
func (b *Backend) SendOnDim(src, dst, dim int, size units.ByteSize, tag int, sentCB func(), deliveredCB func(Message)) {
	b.sendOnDim(src, dst, dim, size, tag, sentCB, deliveredCB, nil)
}

func (b *Backend) sendOnDim(src, dst, dim int, size units.ByteSize, tag int, sentCB func(), deliveredCB func(Message), sink deliverySink) {
	if src == dst {
		panic(fmt.Sprintf("network: self-send on dim %d by NPU %d", dim, src))
	}
	d := b.top.Dims[dim]
	// Walk both ranks' mixed-radix positions: validates that the endpoints
	// differ only in dim and extracts the dim positions without
	// materializing coordinate slices.
	hops := 0
	w := b.top.WalkPositions(src, dst)
	for i, sp, tp, ok := w.Next(); ok; i, sp, tp, ok = w.Next() {
		if i == dim {
			hops = d.Hops(sp, tp)
		} else if sp != tp {
			panic(fmt.Sprintf("network: SendOnDim(%d->%d, dim %d) endpoints differ in dim %d", src, dst, dim, i))
		}
	}
	factor, tracked := 1.0, false
	if b.fc != nil {
		factor, tracked = b.fc.FlowStarted(dim)
	}
	var srcEnd, ready units.Time
	if b.chargeTransit {
		srcEnd, ready = b.reserveTransit(src, dst, dim, size, factor)
	} else {
		srcEnd, ready = b.reserve(src, dst, dim, size, factor)
	}
	if tracked {
		// The flow occupies its links until the transfer is deliverable;
		// report the end through a pooled typed event so fair shares are
		// recomputed the instant it frees.
		b.eng.ScheduleActorAt(ready, b.getFlowDone(dim))
	}
	arrive := ready + units.Time(hops)*d.Latency

	b.stats.Traffic[dim] += 2 * size // sent by src, received by dst

	if sentCB != nil {
		b.eng.ScheduleAt(srcEnd, sentCB)
	}
	del := b.getDelivery()
	del.msg = Message{Src: src, Dst: dst, Tag: tag, Size: size, Dim: dim}
	del.cb, del.sink = deliveredCB, sink
	b.eng.ScheduleActorAt(arrive, del)
}

// SimSend implements API using dimension-ordered routing: the message
// traverses, in ascending dimension order, every dimension where the
// endpoint coordinates differ, serializing on each dimension's links.
func (b *Backend) SimSend(src, dst, tag int, size units.ByteSize, sentCB func()) {
	if src == dst {
		// Local loopback: deliver instantly.
		if sentCB != nil {
			b.eng.Schedule(0, sentCB)
		}
		del := b.getDelivery()
		del.msg = Message{Src: src, Dst: dst, Tag: tag, Size: size, Dim: -1}
		del.sink = b
		b.eng.ScheduleActor(0, del)
		return
	}
	r := b.getLegRun()
	r.src, r.dst, r.tag, r.size = src, dst, tag, size
	r.legs = b.route(src, dst, r.legs[:0])
	r.idx = 0
	r.issue(sentCB)
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
			next := cur + (tp-sp)*stride
			legs = append(legs, hopLeg{dim: dim, from: cur, to: next})
			cur = next
		}
		stride *= b.top.Dims[dim].Size
	}
	return legs
}

type hopLeg struct {
	dim      int
	from, to int
}

// legRun is a pooled in-flight routed send: it owns its leg slice for the
// message's lifetime and re-issues itself as each leg delivers.
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

func (r *legRun) issue(sentCB func()) {
	leg := r.legs[r.idx]
	r.b.sendOnDim(leg.from, leg.to, leg.dim, r.size, r.tag, sentCB, nil, r)
}

// deliverMsg implements deliverySink: one leg landed, issue the next or
// complete the route and recycle.
func (r *legRun) deliverMsg(Message) {
	r.idx++
	if r.idx < len(r.legs) {
		r.issue(nil)
		return
	}
	b := r.b
	msg := Message{Src: r.src, Dst: r.dst, Tag: r.tag, Size: r.size, Dim: -1}
	b.legRuns = append(b.legRuns, r)
	b.deliver(msg)
}

// SimRecv implements API.
func (b *Backend) SimRecv(src, dst, tag int, size units.ByteSize, recvCB func(Message)) {
	if recvCB == nil {
		panic("network: SimRecv requires a callback")
	}
	k := matchKey{src: src, dst: dst, tag: tag}
	if q := b.arrived[k]; q != nil {
		msg := q.items[q.head]
		q.head++
		if q.head == len(q.items) {
			delete(b.arrived, k)
			b.putMsgQueue(q)
		}
		del := b.getDelivery()
		del.msg = msg
		del.cb = recvCB
		b.eng.ScheduleActor(0, del)
		return
	}
	q := b.waiting[k]
	if q == nil {
		q = b.getCBQueue()
		b.waiting[k] = q
	}
	q.items = append(q.items, recvCB)
}

// deliverMsg implements deliverySink for loopback sends: route the message
// into the rendezvous machinery at delivery time.
func (b *Backend) deliverMsg(msg Message) { b.deliver(msg) }

func (b *Backend) deliver(msg Message) {
	k := matchKey{src: msg.Src, dst: msg.Dst, tag: msg.Tag}
	if q := b.waiting[k]; q != nil {
		cb := q.items[q.head]
		q.items[q.head] = nil // release for the GC while pooled
		q.head++
		if q.head == len(q.items) {
			delete(b.waiting, k)
			b.putCBQueue(q)
		}
		cb(msg)
		return
	}
	q := b.arrived[k]
	if q == nil {
		q = b.getMsgQueue()
		b.arrived[k] = q
	}
	q.items = append(q.items, msg)
}

func (b *Backend) getMsgQueue() *msgQueue {
	if n := len(b.msgQueues); n > 0 {
		q := b.msgQueues[n-1]
		b.msgQueues = b.msgQueues[:n-1]
		return q
	}
	return &msgQueue{}
}

func (b *Backend) putMsgQueue(q *msgQueue) {
	q.items = q.items[:0]
	q.head = 0
	b.msgQueues = append(b.msgQueues, q)
}

func (b *Backend) getCBQueue() *cbQueue {
	if n := len(b.cbQueues); n > 0 {
		q := b.cbQueues[n-1]
		b.cbQueues = b.cbQueues[:n-1]
		return q
	}
	return &cbQueue{}
}

func (b *Backend) putCBQueue(q *cbQueue) {
	q.items = q.items[:0]
	q.head = 0
	b.cbQueues = append(b.cbQueues, q)
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

var _ API = (*Backend)(nil)
