package network

import (
	"math/rand"
	"testing"

	"repro/internal/timeline"
	"repro/internal/topology"
	"repro/internal/units"
)

// refLinks is the differential test's reference ledger: one plain time per
// link, updated the simplest way — every phase walks and writes its
// members' links (a whole-machine phase walks every link), and traffic is
// kept per NPU, half sent and half received for a phase member. It shares
// the backend's event engine, so both see the same clock.
type refLinks struct {
	eng        *timeline.Engine
	top        *topology.Topology
	dims       int
	link       []units.Time     // npu*dims+dim
	sent, recv []units.ByteSize // npu*dims+dim
	scale      []float64
	transit    bool
}

func newRefLinks(eng *timeline.Engine, top *topology.Topology) *refLinks {
	n, d := top.NumNPUs(), top.NumDims()
	r := &refLinks{
		eng: eng, top: top, dims: d,
		link:  make([]units.Time, n*d),
		sent:  make([]units.ByteSize, n*d),
		recv:  make([]units.ByteSize, n*d),
		scale: make([]float64, d),
	}
	for i := range r.scale {
		r.scale[i] = 1
	}
	return r
}

func (r *refLinks) dur(dim int, size units.ByteSize) units.Time {
	dur := r.top.Dims[dim].TransferTime(size)
	if s := r.scale[dim]; s != 1 {
		dur = units.Time(float64(dur) / s)
	}
	return dur
}

func (r *refLinks) avail(members []int, dim int) units.Time {
	t := r.eng.Now()
	for _, m := range members {
		if f := r.link[m*r.dims+dim]; f > t {
			t = f
		}
	}
	return t
}

func (r *refLinks) phase(members []int, dim int, traffic units.ByteSize) (start, end units.Time) {
	start = r.avail(members, dim)
	end = start + r.dur(dim, traffic)
	half := traffic / 2
	for _, m := range members {
		i := m*r.dims + dim
		r.link[i] = end
		r.sent[i] += half
		r.recv[i] += traffic - half
	}
	return start, end
}

// charge queues dur on link i behind its backlog and returns the end.
func (r *refLinks) charge(i int, dur units.Time) units.Time {
	start := r.link[i]
	if now := r.eng.Now(); start < now {
		start = now
	}
	r.link[i] = start + dur
	return r.link[i]
}

// send reserves a transfer between two NPUs differing only in dim and
// returns the source egress end and the delivery time.
func (r *refLinks) send(src, dst, dim int, size units.ByteSize) (srcEnd, arrive units.Time) {
	d := r.top.Dims[dim]
	dur := r.dur(dim, size)
	sp, dp := r.top.DimPos(src, dim), r.top.DimPos(dst, dim)
	var path []int
	if r.transit {
		path = d.Kind.TransitPositions(nil, sp, dp, d.Size)
	}
	var ready units.Time
	if len(path) == 0 {
		srcEnd = r.charge(src*r.dims+dim, dur)
		ready = max(srcEnd, r.charge(dst*r.dims+dim, dur))
	} else {
		stride := r.top.DimStride(dim)
		base := src - sp*stride
		for h, pos := range path {
			end := r.charge((base+pos*stride)*r.dims+dim, dur)
			if h == 0 {
				srcEnd = end
			}
			ready = max(ready, end)
		}
	}
	r.sent[src*r.dims+dim] += size
	r.recv[dst*r.dims+dim] += size
	return srcEnd, ready + units.Time(d.Hops(sp, dp))*d.Latency
}

// simSend routes a message dimension by dimension, issuing each leg when
// the previous one lands, and reports the first leg's egress end and the
// final delivery time through the pointers.
func (r *refLinks) simSend(src, dst int, size units.ByteSize, sentAt, deliveredAt *units.Time) {
	var legs [][3]int // dim, from, to
	cur, stride := src, 1
	for dim := 0; dim < r.dims; dim++ {
		sp, dp := r.top.DimPos(src, dim), r.top.DimPos(dst, dim)
		if sp != dp {
			next := cur + (dp-sp)*stride
			legs = append(legs, [3]int{dim, cur, next})
			cur = next
		}
		stride *= r.top.Dims[dim].Size
	}
	var issue func(k int)
	issue = func(k int) {
		l := legs[k]
		srcEnd, arrive := r.send(l[1], l[2], l[0], size)
		if k == 0 {
			*sentAt = srcEnd
		}
		if k == len(legs)-1 {
			*deliveredAt = arrive
			return
		}
		r.eng.ScheduleAt(arrive, func() { issue(k + 1) })
	}
	issue(0)
}

func (r *refLinks) stall(npu int, until units.Time) {
	for d := 0; d < r.dims; d++ {
		r.link[npu*r.dims+d] = max(r.link[npu*r.dims+d], until)
	}
}

func (r *refLinks) traffic(dim int) units.ByteSize {
	var sum units.ByteSize
	for npu := 0; npu < r.top.NumNPUs(); npu++ {
		sum += r.sent[npu*r.dims+dim] + r.recv[npu*r.dims+dim]
	}
	return sum
}

// layoutSpan is one span of a communicator layout: K members, stride apart,
// along a physical dimension.
type layoutSpan struct{ dim, k, stride int }

// layoutInstances enumerates every instance of a layout as a member list,
// one per distinct lowest member.
func layoutInstances(top *topology.Topology, spans []layoutSpan) [][]int {
	var out [][]int
	seen := map[int]bool{}
	for base := 0; base < top.NumNPUs(); base++ {
		origin := base
		for _, s := range spans {
			step := top.DimStride(s.dim)
			pos := origin / step % top.Dims[s.dim].Size
			origin -= (pos / s.stride % s.k) * s.stride * step
		}
		if seen[origin] {
			continue
		}
		seen[origin] = true
		members := []int{origin}
		for _, s := range spans {
			step := top.DimStride(s.dim) * s.stride
			grown := make([]int, 0, len(members)*s.k)
			for _, m := range members {
				for i := 0; i < s.k; i++ {
					grown = append(grown, m+i*step)
				}
			}
			members = grown
		}
		out = append(out, members)
	}
	return out
}

// linkSetRig is one differential run's fixture: a topology and the
// communicator layouts whose instances become link sets.
type linkSetRig struct {
	top     *topology.Topology
	layouts [][]layoutSpan
}

// multiDimRig is a small three-dimension machine whose layouts overlap: an
// MP span and a strided DP span share dimension 0, and other layouts span
// several dimensions.
func multiDimRig() linkSetRig {
	return linkSetRig{
		top: topology.MustNew(
			topology.Dim{Kind: topology.Ring, Size: 8, Bandwidth: units.GBps(100), Latency: 100 * units.Nanosecond},
			topology.Dim{Kind: topology.Switch, Size: 2, Bandwidth: units.GBps(50), Latency: 500 * units.Nanosecond},
			topology.Dim{Kind: topology.FullyConnected, Size: 2, Bandwidth: units.GBps(200), Latency: 200 * units.Nanosecond},
		),
		layouts: [][]layoutSpan{
			{{0, 4, 1}},
			{{0, 2, 4}},
			{{0, 8, 1}},
			{{1, 2, 1}},
			{{1, 2, 1}, {2, 2, 1}},
			{{0, 4, 1}, {1, 2, 1}},
		},
	}
}

// waferRig is GPT-3's layout on a 1-D 512-NPU wafer: MP groups of 16
// adjacent NPUs and DP groups of 32 NPUs 16 apart, both on dimension 0.
// The wafer is a ring here so that transit charging has paths to charge.
func waferRig() linkSetRig {
	return linkSetRig{
		top: topology.MustNew(
			topology.Dim{Kind: topology.Ring, Size: 512, Bandwidth: units.GBps(350), Latency: 20 * units.Nanosecond},
		),
		layouts: [][]layoutSpan{
			{{0, 16, 1}},
			{{0, 32, 16}},
		},
	}
}

// byteStream decodes fuzz input; an exhausted stream yields zeros.
type byteStream struct {
	data []byte
	pos  int
}

func (s *byteStream) pick(n int) int {
	if s.pos >= len(s.data) {
		return 0
	}
	v := int(s.data[s.pos])
	s.pos++
	return v % n
}

func (s *byteStream) done() bool { return s.pos >= len(s.data) }

var (
	diffSizes  = []units.ByteSize{1000, 4096, 65537, units.MB, 3*units.MB + 1}
	diffDelays = []units.Time{0, 0, 0, units.Microsecond, 5 * units.Microsecond, 20 * units.Microsecond, 100 * units.Microsecond}
	diffScales = []float64{0.5, 0.25, 1, 2, 1}
	diffStalls = []units.Time{0, 10 * units.Microsecond, 50 * units.Microsecond}
)

// diffMessage is one point-to-point message's observed and reference
// egress and delivery times.
type diffMessage struct {
	gotSent, gotDelivered   units.Time
	wantSent, wantDelivered units.Time
	sawSent, sawDelivered   bool
}

// runLinkSetDiff decodes an operation sequence from data, schedules it on
// one engine against both the backend and the reference, and requires
// identical phase windows, availabilities, delivery times and per-dimension
// traffic totals. Each op fires at its own instant (often shared with its
// neighbours); a routed send's later legs fire as the previous leg lands,
// the reference's leg events right behind the backend's.
func runLinkSetDiff(t testing.TB, rig linkSetRig, data []byte) {
	top := rig.top
	eng := timeline.New()
	b := NewBackend(eng, top)
	ref := newRefLinks(eng, top)
	var sets []*LinkSet
	for _, l := range rig.layouts {
		for _, members := range layoutInstances(top, l) {
			sets = append(sets, b.NewLinkSet(members))
		}
	}
	n, dims := top.NumNPUs(), top.NumDims()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	machine := b.Machine()
	if got := b.NewLinkSet(all); got != machine {
		t.Fatalf("NewLinkSet over every NPU = %p, want the machine set %p", got, machine)
	}
	// Half the subset phases reuse the previous phase's set, so sets keep
	// their links across phases and take the owned path.
	last := sets[0]
	var msgs []*diffMessage
	in := &byteStream{data: data}
	var at units.Time
	for op := 0; !in.done() && op < 512; op++ {
		at += diffDelays[in.pick(len(diffDelays))]
		var fn func()
		switch in.pick(11) {
		case 0, 1, 2: // subset phase
			if in.pick(2) == 0 {
				last = sets[in.pick(len(sets))]
			}
			s := last
			dim, size := in.pick(dims), diffSizes[in.pick(len(diffSizes))]
			fn = func() {
				gs, ge := b.ReservePhase(s, dim, size)
				ws, we := ref.phase(s.Members(), dim, size)
				if gs != ws || ge != we {
					t.Fatalf("t=%d: phase on %v dim %d = [%d, %d], reference [%d, %d]", eng.Now(), s.Members(), dim, gs, ge, ws, we)
				}
			}
		case 3: // whole-machine phase
			dim, size := in.pick(dims), diffSizes[in.pick(len(diffSizes))]
			fn = func() {
				gs, ge := b.ReservePhase(machine, dim, size)
				ws, we := ref.phase(all, dim, size)
				if gs != ws || ge != we {
					t.Fatalf("t=%d: whole-machine phase dim %d = [%d, %d], reference [%d, %d]", eng.Now(), dim, gs, ge, ws, we)
				}
			}
		case 4: // subset availability
			s, dim := sets[in.pick(len(sets))], in.pick(dims)
			fn = func() {
				if got, want := b.PhaseAvailability(s, dim), ref.avail(s.Members(), dim); got != want {
					t.Fatalf("t=%d: availability of %v dim %d = %d, reference %d", eng.Now(), s.Members(), dim, got, want)
				}
			}
		case 5: // whole-machine availability
			dim := in.pick(dims)
			fn = func() {
				if got, want := b.PhaseAvailability(machine, dim), ref.avail(all, dim); got != want {
					t.Fatalf("t=%d: whole-machine availability dim %d = %d, reference %d", eng.Now(), dim, got, want)
				}
			}
		case 6: // SendOnDim
			src, dim := in.pick(n), in.pick(dims)
			size := diffSizes[in.pick(len(diffSizes))]
			k, pos := top.Dims[dim].Size, top.DimPos(src, dim)
			dst := src + ((pos+1+in.pick(k-1))%k-pos)*top.DimStride(dim)
			m := &diffMessage{}
			msgs = append(msgs, m)
			fn = func() {
				b.SendOnDim(src, dst, dim, size,
					timeline.Callback(func() { m.gotSent, m.sawSent = eng.Now(), true }),
					timeline.Callback(func() { m.gotDelivered, m.sawDelivered = eng.Now(), true }))
				m.wantSent, m.wantDelivered = ref.send(src, dst, dim, size)
			}
		case 7: // SimSend
			src := in.pick(n)
			dst := (src + 1 + in.pick(n-1)) % n
			size := diffSizes[in.pick(len(diffSizes))]
			m := &diffMessage{}
			tag := len(msgs)
			msgs = append(msgs, m)
			fn = func() {
				b.SimRecv(src, dst, tag, timeline.Callback(func() { m.gotDelivered, m.sawDelivered = eng.Now(), true }))
				b.SimSend(src, dst, tag, size, timeline.Callback(func() { m.gotSent, m.sawSent = eng.Now(), true }))
				ref.simSend(src, dst, size, &m.wantSent, &m.wantDelivered)
			}
		case 8: // NPU stall
			npu, d := in.pick(n), diffStalls[in.pick(len(diffStalls))]
			fn = func() {
				b.StallNPULinks(npu, eng.Now()+d)
				ref.stall(npu, eng.Now()+d)
			}
		case 9: // bandwidth scale
			dim, s := in.pick(dims), diffScales[in.pick(len(diffScales))]
			fn = func() {
				b.SetDimBandwidthScale(dim, s)
				ref.scale[dim] = s
			}
		case 10: // transit charging
			on := in.pick(2) == 1
			fn = func() {
				b.SetTransitCharging(on)
				ref.transit = on
			}
		}
		eng.ScheduleAt(at, fn)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, m := range msgs {
		if !m.sawSent || !m.sawDelivered {
			t.Fatalf("message %d: sent=%v delivered=%v, want both", i, m.sawSent, m.sawDelivered)
		}
		if m.gotSent != m.wantSent || m.gotDelivered != m.wantDelivered {
			t.Fatalf("message %d: sent %d delivered %d, reference %d / %d", i, m.gotSent, m.gotDelivered, m.wantSent, m.wantDelivered)
		}
	}
	for d := 0; d < dims; d++ {
		if got, want := b.Stats().Traffic[d], ref.traffic(d); got != want {
			t.Fatalf("dim %d traffic total %d, reference %d", d, got, want)
		}
		for _, s := range append(sets, machine) {
			if got, want := b.PhaseAvailability(s, d), ref.avail(s.Members(), d); got != want {
				t.Fatalf("final availability of %v dim %d = %d, reference %d", s.Members(), d, got, want)
			}
		}
	}
}

// TestLinkSetsMatchReference runs random operation sequences through the
// backend and the plain per-link reference on both rigs.
func TestLinkSetsMatchReference(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 20
	}
	for _, rig := range []struct {
		name string
		rig  linkSetRig
	}{{"multi-dim", multiDimRig()}, {"wafer", waferRig()}} {
		t.Run(rig.name, func(t *testing.T) {
			for seed := 0; seed < seeds; seed++ {
				data := make([]byte, 1500)
				rand.New(rand.NewSource(int64(seed))).Read(data)
				runLinkSetDiff(t, rig.rig, data)
			}
		})
	}
}

// FuzzLinkSets drives the differential link-ledger check on the
// multi-dimension rig with arbitrary operation sequences.
func FuzzLinkSets(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		data := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	rig := multiDimRig()
	f.Fuzz(func(t *testing.T, data []byte) {
		runLinkSetDiff(t, rig, data)
	})
}

// TestOwnedLinkSetPhaseAllocFree: once a set owns its links, a phase on it
// allocates nothing. The machine set owns every link from the start, so
// whole-machine phases alone never allocate the per-link arrays.
func TestOwnedLinkSetPhaseAllocFree(t *testing.T) {
	for _, c := range []struct {
		name string
		set  func(b *Backend) *LinkSet
	}{
		{"subset", func(b *Backend) *LinkSet {
			return b.NewLinkSet(layoutInstances(b.Topology(), []layoutSpan{{0, 16, 1}})[0])
		}},
		{"machine", (*Backend).Machine},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := NewBackend(timeline.New(), waferRig().top)
			set := c.set(b)
			b.ReservePhase(set, 0, units.MB)
			allocs := testing.AllocsPerRun(100, func() {
				b.ReservePhase(set, 0, units.MB)
			})
			if allocs != 0 {
				t.Errorf("owned link-set phase allocates %.1f objects, want 0", allocs)
			}
			if c.name == "machine" && b.linkFree != nil {
				t.Error("whole-machine phases allocated the per-link arrays")
			}
		})
	}
}

// TestMachineSetReclaimsLinks: a subset phase, a point-to-point send and a
// stall each take links of one dimension from the machine set; the next
// whole-machine phase walks every link, starts behind the latest and owns
// the dimension again. Every window and availability matches the plain
// per-link reference.
func TestMachineSetReclaimsLinks(t *testing.T) {
	const dim = 0
	top := multiDimRig().top
	eng := timeline.New()
	b := NewBackend(eng, top)
	ref := newRefLinks(eng, top)
	machine := b.Machine()
	all := machine.Members()
	subset := b.NewLinkSet([]int{0, 1, 2, 3})
	phase := func(s *LinkSet, size units.ByteSize) {
		t.Helper()
		gs, ge := b.ReservePhase(s, dim, size)
		ws, we := ref.phase(s.Members(), dim, size)
		if gs != ws || ge != we {
			t.Fatalf("phase on %v = [%d, %d], reference [%d, %d]", s.Members(), gs, ge, ws, we)
		}
	}
	for _, take := range []struct {
		name string
		do   func()
	}{
		{"subset phase", func() { phase(subset, 3*units.MB) }},
		{"SendOnDim", func() {
			b.SendOnDim(4, 6, dim, 2*units.MB, nil, noop)
			ref.send(4, 6, dim, 2*units.MB)
		}},
		{"StallNPULinks", func() {
			until := eng.Now() + units.Millisecond
			b.StallNPULinks(7, until)
			ref.stall(7, until)
		}},
	} {
		phase(machine, units.MB)
		if !machine.owns[dim] {
			t.Fatalf("before %s: machine set does not own dim %d after a whole-machine phase", take.name, dim)
		}
		take.do()
		if machine.owns[dim] {
			t.Fatalf("%s left the machine set owning dim %d", take.name, dim)
		}
		if got, want := b.PhaseAvailability(machine, dim), ref.avail(all, dim); got != want {
			t.Fatalf("after %s: whole-machine availability %d, reference %d", take.name, got, want)
		}
		phase(machine, units.MB)
		if !machine.owns[dim] || subset.owns[dim] {
			t.Fatalf("after %s: whole-machine phase left ownership machine=%v subset=%v, want true, false", take.name, machine.owns[dim], subset.owns[dim])
		}
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := b.Stats().Traffic[dim], ref.traffic(dim); got != want {
		t.Fatalf("dim %d traffic total %d, reference %d", dim, got, want)
	}
}

// A weighted link set reserves only its members' links, at the times an
// unweighted set over the same members gets, but counts each phase's
// traffic for members × weight ranks.
func TestWeightedLinkSetCountsTrafficForItsWeight(t *testing.T) {
	top := topology.MustNew(topology.Dim{Kind: topology.Ring, Size: 8, Bandwidth: units.GBps(100)})
	plain, weighted := NewBackend(timeline.New(), top), NewBackend(timeline.New(), top)
	members := []int{0, 4}
	a, b := plain.NewLinkSet(members), weighted.NewWeightedLinkSet(members, 4)
	for i := 0; i < 3; i++ {
		s1, e1 := plain.ReservePhase(a, 0, units.MB)
		s2, e2 := weighted.ReservePhase(b, 0, units.MB)
		if s1 != s2 || e1 != e2 {
			t.Fatalf("phase %d: weighted set reserved [%v, %v], unweighted [%v, %v]", i, s2, e2, s1, e1)
		}
	}
	if got, want := weighted.Stats().Traffic[0], 3*8*units.MB; got != want {
		t.Errorf("weighted traffic %v, want %v", got, want)
	}
	if got, want := plain.Stats().Traffic[0], 3*2*units.MB; got != want {
		t.Errorf("unweighted traffic %v, want %v", got, want)
	}
	if got := weighted.PhaseAvailability(b, 0); got != plain.PhaseAvailability(a, 0) {
		t.Errorf("weighted set available at %v, unweighted at %v", got, plain.PhaseAvailability(a, 0))
	}
}
