package garnet

import (
	"math/rand"
	"testing"

	"repro/internal/units"
)

// scanStep is Step as it was before the simulator tracked busy links: it
// visits every link of every node on every cycle and finds each link's
// neighbour by division. The differential tests below hold Step to it.
func scanStep(s *Simulator) {
	s.cycle++
	slot := s.cycle % uint64(len(s.arrivals))

	landSlot := (s.cycle + uint64(s.cfg.LinkLatency)) % uint64(len(s.arrivals))
	for node := 0; node < s.nnodes; node++ {
		for dim := 0; dim < s.dims; dim++ {
			for _, dir := range [2]int{-1, 1} {
				l := &s.links[s.linkIdx(node, dim, dir)]
				if l.head == len(l.queue) {
					continue
				}
				head := &l.queue[l.head]
				head.flits--
				next := scanNeighbor(s, node, dim, dir)
				s.arrivals[landSlot] = append(s.arrivals[landSlot],
					arrival{msg: head.msg, node: next, flits: 1, hopsLeft: head.hopsAfter})
				if head.flits == 0 {
					if l.head++; l.head == len(l.queue) {
						l.queue, l.head = l.queue[:0], 0
					}
				}
			}
		}
	}

	landed := s.arrivals[slot]
	for _, a := range landed {
		s.route(a)
	}
	s.arrivals[slot] = landed[:0]
}

func scanNeighbor(s *Simulator, node, dim, dir int) int {
	k := s.cfg.Shape[dim]
	st := s.stride(dim)
	pos := (node / st) % k
	next := (pos + dir + k) % k
	return node + (next-pos)*st
}

// diffSend is one send of a differential program. A root send is issued
// before the cycle at; any other is issued by the done callback of the
// send whose then names it.
type diffSend struct {
	root          bool
	at            uint64
	src, dst, dim int
	size          units.ByteSize
	then          int // the send this one's callback issues, or -1
}

type diffProgram struct {
	cfg   Config
	sends []diffSend
}

// decodeDiffProgram reads a torus of 1-3 dimensions of sizes 2-7, a link
// latency of 1-3, a flit width and up to 32 sends from data (zeros once it
// runs out). Destinations lie anywhere on the source's ring, so sends go
// either way, over several hops or none, and sizes include zero bytes.
func decodeDiffProgram(data []byte) diffProgram {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
	var p diffProgram
	p.cfg.Shape = make([]int, 1+next(3))
	nodes := 1
	for i := range p.cfg.Shape {
		p.cfg.Shape[i] = 2 + next(6)
		nodes *= p.cfg.Shape[i]
	}
	p.cfg.LinkLatency = 1 + next(3)
	p.cfg.FlitBytes = 1 + next(16)
	p.sends = make([]diffSend, 1+next(32))
	for i := range p.sends {
		d := &p.sends[i]
		d.dim = next(len(p.cfg.Shape))
		st := 1
		for _, k := range p.cfg.Shape[:d.dim] {
			st *= k
		}
		k := p.cfg.Shape[d.dim]
		d.src = next(nodes)
		d.dst = d.src + (next(k)-d.src/st%k)*st
		d.size = units.ByteSize(next(256))
		d.then = -1
		d.root = true
		if i > 0 && next(3) == 0 {
			if caller := &p.sends[next(i)]; caller.then < 0 {
				caller.then, d.root = i, false
			}
		}
		if d.root {
			d.at = uint64(next(16))
		}
	}
	return p
}

type completion struct {
	send  int
	cycle uint64
}

// run executes p, advancing each cycle with step, and returns the sends'
// completions in callback order and the cycles run.
func (p diffProgram) run(t *testing.T, step func(*Simulator)) ([]completion, uint64) {
	s, err := New(p.cfg)
	if err != nil {
		t.Fatal(err)
	}
	var log []completion
	var send func(i int)
	send = func(i int) {
		d := p.sends[i]
		if err := s.Send(d.src, d.dst, d.dim, d.size, func() {
			log = append(log, completion{i, s.Cycles()})
			if d.then >= 0 {
				send(d.then)
			}
		}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	const maxCycles = 1 << 20
	for c := uint64(0); ; c++ {
		pending := false
		for i, d := range p.sends {
			if d.root && d.at == c {
				send(i)
			}
			pending = pending || d.root && d.at > c
		}
		if !pending && s.inFlight == 0 {
			return log, s.Cycles()
		}
		if c > maxCycles {
			t.Fatalf("%d messages still in flight after %d cycles", s.inFlight, c)
		}
		step(s)
	}
}

// runStepDiff runs the program data encodes twice, once stepped by Step and
// once by scanStep, and requires the same completions, in the same callback
// order, on the same cycles, and the same cycle count.
func runStepDiff(t *testing.T, data []byte) {
	p := decodeDiffProgram(data)
	want, wantCycles := p.run(t, scanStep)
	got, gotCycles := p.run(t, (*Simulator).Step)
	if len(want) != len(p.sends) {
		t.Fatalf("reference completed %d of %d sends", len(want), len(p.sends))
	}
	for i := range want {
		if i >= len(got) {
			t.Fatalf("%+v: %d completions, want %d; first missing %+v", p.cfg, len(got), len(want), want[i])
		}
		if got[i] != want[i] {
			t.Fatalf("%+v: completion %d: got %+v, want %+v", p.cfg, i, got[i], want[i])
		}
	}
	if len(got) != len(want) || gotCycles != wantCycles {
		t.Fatalf("%+v: %d completions after %d cycles, want %d after %d",
			p.cfg, len(got), gotCycles, len(want), wantCycles)
	}
}

func TestStepMatchesScan(t *testing.T) {
	seeds := 3000
	if testing.Short() {
		seeds = 300
	}
	for seed := 0; seed < seeds; seed++ {
		data := make([]byte, 200)
		rand.New(rand.NewSource(int64(seed))).Read(data)
		runStepDiff(t, data)
	}
}

// FuzzStepMatchesScan drives the differential check with arbitrary
// programs.
func FuzzStepMatchesScan(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		data := make([]byte, 200)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(runStepDiff)
}
