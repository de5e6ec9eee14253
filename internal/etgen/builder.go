package etgen

import (
	"fmt"

	"repro/internal/et"
)

// graphBuilder fills one node list with auto-assigned IDs 1, 2, ... .
// Generators use it to express graphs as straight-line code. They pass it
// the list's exact node and dependency counts, so the list is one
// allocation and every node's Deps is a window of one shared array, filled
// in node order. Generated lists are read-only, like every list the ranks
// of a symmetric trace share.
type graphBuilder struct {
	nodes []et.Node
	deps  []int
}

func newGraphBuilder(nodes, deps int) *graphBuilder {
	return &graphBuilder{nodes: make([]et.Node, 0, nodes), deps: make([]int, 0, deps)}
}

// add appends n with the next ID and returns the ID. A dep of 0 means
// "none", so callers can pass a predecessor that may not exist.
func (b *graphBuilder) add(n et.Node, deps ...int) int {
	n.ID = len(b.nodes) + 1
	start := len(b.deps)
	for _, d := range deps {
		if d != 0 {
			b.deps = append(b.deps, d)
		}
	}
	if len(b.deps) > start {
		n.Deps = b.deps[start:]
	}
	b.nodes = append(b.nodes, n)
	return n.ID
}

func (b *graphBuilder) compute(name string, flops float64, memBytes int64, deps ...int) int {
	return b.add(et.Node{Name: name, Kind: et.KindCompute, FLOPs: flops, MemBytes: memBytes}, deps...)
}

func (b *graphBuilder) memory(name string, op et.MemOp, loc et.MemLocation, bytes int64, deps ...int) int {
	return b.add(et.Node{Name: name, Kind: et.KindMemory, MemOp: op, MemLocation: loc, TensorBytes: bytes}, deps...)
}

func (b *graphBuilder) collective(name string, coll et.CollectiveType, bytes int64, group *et.GroupRef, inSwitch bool, deps ...int) int {
	return b.add(et.Node{
		Name: name, Kind: et.KindComm, Collective: coll,
		CommBytes: bytes, Group: group, InSwitch: inSwitch,
	}, deps...)
}

func (b *graphBuilder) send(name string, peer, tag int, bytes int64, deps ...int) int {
	return b.add(et.Node{Name: name, Kind: et.KindSend, Peer: peer, Tag: tag, CommBytes: bytes}, deps...)
}

func (b *graphBuilder) recv(name string, peer, tag int, bytes int64, deps ...int) int {
	return b.add(et.Node{Name: name, Kind: et.KindRecv, Peer: peer, Tag: tag, CommBytes: bytes}, deps...)
}

// newTrace returns a trace of numNPUs graphs, graph r for NPU r, whose
// graph structs share one array. The caller fills in each graph's nodes.
func newTrace(name string, numNPUs int) *et.Trace {
	graphs := make([]et.Graph, numNPUs)
	tr := &et.Trace{Name: name, NumNPUs: numNPUs, Graphs: make([]*et.Graph, numNPUs)}
	for r := range graphs {
		graphs[r].NPU = r
		tr.Graphs[r] = &graphs[r]
	}
	return tr
}

// symmetric builds a whole-machine trace where every NPU shares the same
// node list. Nodes are shared (not copied): the execution engine treats
// them as read-only and resolves communicator groups per issuing rank, so
// sharing keeps trace memory independent of machine size.
func symmetric(name string, numNPUs int, b *graphBuilder) *et.Trace {
	tr := newTrace(name, numNPUs)
	for _, g := range tr.Graphs {
		g.Nodes = b.nodes
	}
	return tr
}

// stageClasses lists the classes of a pipeline's stages as (hasPrev,
// hasNext) pairs: the first stage's, the last's, and with more than two
// stages the middle ones'. Peers are offsets from the issuing rank, so a
// stage's node list depends only on its class.
func stageClasses(stages int) [][2]int {
	return [][2]int{{0, 1}, {1, 0}, {1, 1}}[:min(stages, 3)]
}

// checkStageLists reports a stage class whose list is too long for et:
// size returns the class's exact node and dependency counts. Generators
// call it before allocating anything proportional to the lists.
func checkStageLists(name string, stages int, size func(hasPrev, hasNext int) (nodes, deps int)) error {
	for _, c := range stageClasses(stages) {
		if nodes, deps := size(c[0], c[1]); nodes > et.MaxListLen || deps > et.MaxListLen {
			return fmt.Errorf("etgen: %s: a stage's node list needs %d nodes and %d dependencies; a list holds at most %d of each",
				name, nodes, deps, et.MaxListLen)
		}
	}
	return nil
}

// stageTrace returns a trace of stages pipeline stages, stage s owning the
// block ranks [s*block, (s+1)*block). It builds one list per stage class,
// through a builder of the counts size returns, and every rank of the
// class shares it.
func stageTrace(name string, stages, block int, size func(hasPrev, hasNext int) (nodes, deps int), build func(b *graphBuilder, hasPrev, hasNext int)) *et.Trace {
	var lists [2][2][]et.Node // by hasPrev, hasNext
	for _, c := range stageClasses(stages) {
		b := newGraphBuilder(size(c[0], c[1]))
		build(b, c[0], c[1])
		lists[c[0]][c[1]] = b.nodes
	}
	tr := newTrace(name, stages*block)
	for rank, g := range tr.Graphs {
		stage := rank / block
		g.Nodes = lists[min(stage, 1)][min(stages-1-stage, 1)]
	}
	return tr
}
