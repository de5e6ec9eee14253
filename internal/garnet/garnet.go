// Package garnet is a from-scratch cycle-level, flit-granular network
// simulator standing in for the gem5 Garnet backend that ASTRA-sim 1.0
// used (Section IV-C). It exists to reproduce the paper's speedup study:
// the analytical backend answers the same questions three orders of
// magnitude faster, because this simulator pays for every flit on every
// busy link on every cycle.
//
// It runs no collective algorithm of its own: Play runs the message-level
// schedule collective.MessageSchedule builds from the topology's phase
// schedules, the same steps collective.RunMessageLevel plays on the
// analytical network, so the two backends can be held to each other.
//
// Model: a k-ary n-cube (torus) with one bidirectional link pair per
// dimension per node. Messages are wormhole-routed flit trains on
// shortest ring paths, dimension by dimension; each link moves one flit
// per cycle and adds a fixed per-hop pipeline latency. Buffers are
// unbounded (no credit stalls), which favours the cycle simulator — the
// measured speedup of the analytical backend is therefore conservative.
package garnet

import (
	"fmt"
	"math/bits"

	"repro/internal/topology"
	"repro/internal/units"
)

// Config describes the simulated torus.
type Config struct {
	// Shape lists the torus dimensions, Dim 1 first (e.g. 4,4,4).
	Shape []int
	// FlitBytes is the link width: one flit per link per cycle.
	// Default 16 bytes.
	FlitBytes int
	// LinkLatency is the per-hop pipeline depth in cycles. Default 1.
	LinkLatency int
	// ClockGHz converts cycles to time. Default 1.0.
	ClockGHz float64
}

func (c *Config) defaults() {
	if c.FlitBytes == 0 {
		c.FlitBytes = 16
	}
	if c.LinkLatency == 0 {
		c.LinkLatency = 1
	}
	if c.ClockGHz == 0 {
		c.ClockGHz = 1.0
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if len(c.Shape) == 0 {
		return fmt.Errorf("garnet: empty shape")
	}
	for i, k := range c.Shape {
		if k < 2 {
			return fmt.Errorf("garnet: dim %d size %d; need k >= 2", i+1, k)
		}
	}
	if c.FlitBytes < 0 || c.LinkLatency < 0 || c.ClockGHz < 0 {
		return fmt.Errorf("garnet: negative parameter")
	}
	return nil
}

// message is an in-flight flit train.
type message struct {
	id        int
	dim       int // torus dimension it travels on
	dir       int // +1 or -1 around the ring
	flits     int // train length
	delivered int // flits that reached the final node
	done      func()
}

// flow is a run of same-message flits waiting on one link. All flits of a
// message on a given link sit at the same path position, so the remaining
// hop count after this link is a flow property and merging batches of the
// same message is safe.
type flow struct {
	msg       *message
	flits     int
	hopsAfter int // hops remaining once this link is crossed
}

// link is one unidirectional channel: a FIFO of flows. queue[head] is the
// flow at the front; the consumed prefix is reclaimed when the queue empties
// or its array fills, so a busy link reuses one array instead of growing a
// new one per message.
type link struct {
	queue []flow
	head  int
}

// Simulator is the cycle engine.
type Simulator struct {
	cfg    Config
	nnodes int
	// links[(node*dims+dim)*2+dir01], dir01 0 for -1 and 1 for +1.
	links []link
	// next[li] is the node link li leads to.
	next []int32
	// busy has bit li set while link li holds a flit; Step visits only
	// these links, in ascending link index.
	busy []uint64
	dims int
	// arrivals[cycle % (latency+1)] holds flits landing that cycle.
	arrivals [][]arrival
	cycle    uint64
	inFlight int
	nextID   int
}

type arrival struct {
	msg      *message
	node     int // router the flit arrives at
	flits    int
	hopsLeft int // hops still to travel after landing here
}

// New builds a simulator.
func New(cfg Config) (*Simulator, error) {
	cfg.defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := 1
	for _, k := range cfg.Shape {
		n *= k
	}
	nlinks := n * len(cfg.Shape) * 2
	s := &Simulator{
		cfg:    cfg,
		nnodes: n,
		dims:   len(cfg.Shape),
		links:  make([]link, nlinks),
		next:   make([]int32, nlinks),
		busy:   make([]uint64, (nlinks+63)/64),
	}
	for node := 0; node < n; node++ {
		st := 1
		for dim, k := range cfg.Shape {
			pos := (node / st) % k
			s.next[s.linkIdx(node, dim, -1)] = int32(node + ((pos+k-1)%k-pos)*st)
			s.next[s.linkIdx(node, dim, 1)] = int32(node + ((pos+1)%k-pos)*st)
			st *= k
		}
	}
	s.arrivals = make([][]arrival, cfg.LinkLatency+1)
	return s, nil
}

// NumNodes returns the torus size.
func (s *Simulator) NumNodes() int { return s.nnodes }

// Cycles returns the cycles executed so far.
func (s *Simulator) Cycles() uint64 { return s.cycle }

// Time converts the elapsed cycles to simulated time.
func (s *Simulator) Time() units.Time {
	return units.FromNanos(float64(s.cycle) / s.cfg.ClockGHz)
}

func (s *Simulator) stride(dim int) int {
	st := 1
	for i := 0; i < dim; i++ {
		st *= s.cfg.Shape[i]
	}
	return st
}

func (s *Simulator) linkIdx(node, dim, dir int) int {
	d01 := 0
	if dir > 0 {
		d01 = 1
	}
	return (node*s.dims+dim)*2 + d01
}

// Send injects a message travelling within one dimension; done fires when
// the tail flit reaches the destination. Messages crossing zero hops
// complete after one cycle; a zero-byte message still sends one flit.
func (s *Simulator) Send(src, dst, dim int, size units.ByteSize, done func()) error {
	if dim < 0 || dim >= s.dims {
		return fmt.Errorf("garnet: dim %d out of range", dim)
	}
	if src < 0 || src >= s.nnodes {
		return fmt.Errorf("garnet: src %d out of range [0, %d)", src, s.nnodes)
	}
	if dst < 0 || dst >= s.nnodes {
		return fmt.Errorf("garnet: dst %d out of range [0, %d)", dst, s.nnodes)
	}
	if size < 0 {
		return fmt.Errorf("garnet: negative size %d", int64(size))
	}
	k := s.cfg.Shape[dim]
	st := s.stride(dim)
	sp, dp := (src/st)%k, (dst/st)%k
	if src-sp*st != dst-dp*st {
		return fmt.Errorf("garnet: src %d and dst %d differ outside dim %d", src, dst, dim)
	}
	fwd := (dp - sp + k) % k
	bwd := (sp - dp + k) % k
	dir, hops := 1, fwd
	if bwd < fwd {
		dir, hops = -1, bwd
	}
	flits := int((size + units.ByteSize(s.cfg.FlitBytes) - 1) / units.ByteSize(s.cfg.FlitBytes))
	if flits == 0 {
		flits = 1
	}
	s.nextID++
	m := &message{id: s.nextID, dim: dim, dir: dir, flits: flits, done: done}
	s.inFlight++
	if hops == 0 {
		// Local delivery: complete at the next cycle boundary.
		s.arrivals[(s.cycle+1)%uint64(len(s.arrivals))] = append(
			s.arrivals[(s.cycle+1)%uint64(len(s.arrivals))],
			arrival{msg: m, node: dst, flits: flits, hopsLeft: 0})
		return nil
	}
	li := s.linkIdx(src, dim, dir)
	s.enqueue(li, m, flits, hops-1)
	return nil
}

func (s *Simulator) enqueue(li int, m *message, flits, hopsAfter int) {
	l := &s.links[li]
	if n := len(l.queue); n > l.head && l.queue[n-1].msg == m && l.queue[n-1].hopsAfter == hopsAfter {
		l.queue[n-1].flits += flits
		return
	}
	if l.head > 0 && len(l.queue) == cap(l.queue) {
		n := copy(l.queue, l.queue[l.head:])
		l.queue, l.head = l.queue[:n], 0
	}
	l.queue = append(l.queue, flow{msg: m, flits: flits, hopsAfter: hopsAfter})
	s.busy[li>>6] |= 1 << (li & 63)
}

// Step advances one cycle: every busy link moves one flit, and flits that
// finished their hop latency are routed at their arrival router.
func (s *Simulator) Step() {
	s.cycle++
	slot := s.cycle % uint64(len(s.arrivals))

	// Move one flit per busy link, in ascending link index (node, then
	// dim, then -1 before +1); it lands after LinkLatency cycles. Nothing
	// joins a queue until routing below, so each word is read once.
	landSlot := (s.cycle + uint64(s.cfg.LinkLatency)) % uint64(len(s.arrivals))
	landing := s.arrivals[landSlot]
	for w, word := range s.busy {
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			li := w<<6 | b
			l := &s.links[li]
			head := &l.queue[l.head]
			head.flits--
			landing = append(landing,
				arrival{msg: head.msg, node: int(s.next[li]), flits: 1, hopsLeft: head.hopsAfter})
			if head.flits == 0 {
				if l.head++; l.head == len(l.queue) {
					l.queue, l.head = l.queue[:0], 0
					s.busy[w] &^= 1 << b
				}
			}
		}
	}
	s.arrivals[landSlot] = landing

	// Route flits that land this cycle, then keep the drained slot's
	// backing array for a later cycle. Routing never appends to this slot:
	// forwarded flits join link queues, and a done callback's Send only
	// appends to the next cycle's slot, which differs from this one because
	// there are LinkLatency+1 >= 2 slots.
	landed := s.arrivals[slot]
	for _, a := range landed {
		s.route(a)
	}
	s.arrivals[slot] = landed[:0]
}

// route handles a flit batch arriving at a router: forward it along the
// ring, or absorb it at the destination.
func (s *Simulator) route(a arrival) {
	m := a.msg
	if a.hopsLeft > 0 {
		li := s.linkIdx(a.node, m.dim, m.dir)
		s.enqueue(li, m, a.flits, a.hopsLeft-1)
		return
	}
	m.delivered += a.flits
	if m.delivered == m.flits {
		s.inFlight--
		if m.done != nil {
			m.done()
		}
	}
}

// Drain runs cycles until no messages are in flight. It returns an error
// if messages are still in flight once more than maxCycles cycles have run,
// a safety valve against a collective that never completes. A drain whose
// last flit lands on the cycle that crosses the budget has delivered
// everything and succeeds.
func (s *Simulator) Drain(maxCycles uint64) error {
	start := s.cycle
	for s.inFlight > 0 {
		if s.cycle-start > maxCycles {
			return fmt.Errorf("garnet: %d messages still in flight after %d cycles", s.inFlight, s.cycle-start)
		}
		s.Step()
	}
	return nil
}

// Play runs a message-level schedule (collective.MessageSchedule) at full
// cycle fidelity, step by step: it sends every transfer of a step on the
// step's dimension, drains the network, and moves on, the bulk-synchronous
// structure of the collectives' algorithms. It returns the simulated
// completion time and the number of cycles it ran. A transfer Send
// refuses, or a step still in flight after 2^36 cycles, is an error.
func (s *Simulator) Play(steps []topology.Step) (units.Time, uint64, error) {
	const maxStepCycles = 1 << 36
	start := s.cycle
	for _, st := range steps {
		for _, x := range st.Xfers {
			if err := s.Send(x.Src, x.Dst, st.Dim, x.Bytes, nil); err != nil {
				return 0, 0, err
			}
		}
		if err := s.Drain(maxStepCycles); err != nil {
			return 0, 0, err
		}
	}
	return s.Time(), s.cycle - start, nil
}
