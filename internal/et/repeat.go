package et

import (
	"fmt"
)

// Repeat unrolls a single-iteration trace into n back-to-back training
// iterations: each NPU's graph is cloned n times with fresh node IDs, and
// every iteration's entry nodes (those with no dependencies) gain an edge
// from the previous iteration's exit nodes (those nothing depends on) —
// the synchronous-training iteration boundary. Point-to-point tags are
// remapped per iteration so sends and receives pair within their own
// iteration.
func Repeat(t *Trace, n int) (*Trace, error) {
	if n < 1 {
		return nil, fmt.Errorf("et: Repeat needs n >= 1, got %d", n)
	}
	plans, err := t.Plans()
	if err != nil {
		return nil, fmt.Errorf("et: Repeat input: %w", err)
	}
	if n == 1 {
		return t, nil
	}
	// Tags are remapped as tag + iter*tagStride; find a stride beyond any
	// existing tag to keep iterations disjoint.
	maxTag := 0
	for _, g := range t.Graphs {
		for i := range g.Nodes {
			maxTag = max(maxTag, g.Nodes[i].Tag)
		}
	}
	tagStride := maxTag + 1

	out := &Trace{
		Name:    fmt.Sprintf("%sx%d", t.Name, n),
		NumNPUs: t.NumNPUs,
	}
	// Graphs that share a plan share its repetition too, so per-list work
	// downstream stays once per list.
	repeated := make(map[*Plan][]Node)
	for i, g := range t.Graphs {
		nodes, ok := repeated[plans[i]]
		if !ok {
			nodes = repeatNodes(plans[i], n, tagStride)
			repeated[plans[i]] = nodes
		}
		out.Graphs = append(out.Graphs, &Graph{NPU: g.NPU, Nodes: nodes})
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("et: Repeat produced an invalid trace: %w", err)
	}
	return out, nil
}

// repeatNodes clones one plan's node list n times with IDs offset per
// iteration, chaining each iteration's entry nodes to the previous
// iteration's exits. The clones fill one exact-size list, and their deps
// are windows of one exact-size array.
func repeatNodes(p *Plan, n, tagStride int) []Node {
	maxID, edges := 0, 0
	var exits []int
	for pos := range p.nodes {
		node := &p.nodes[pos]
		maxID = max(maxID, node.ID)
		edges += len(node.Deps)
		if len(p.Dependents(int32(pos))) == 0 {
			exits = append(exits, node.ID)
		}
	}
	idStride := maxID + 1

	out := make([]Node, 0, len(p.nodes)*n)
	deps := make([]int, 0, n*edges+(n-1)*len(p.roots)*len(exits))
	for iter := 0; iter < n; iter++ {
		off := iter * idStride
		for i := range p.nodes {
			node := &p.nodes[i]
			clone := *node
			clone.ID = node.ID + off
			start := len(deps)
			for _, d := range node.Deps {
				deps = append(deps, d+off)
			}
			if iter > 0 && len(node.Deps) == 0 {
				// Iteration boundary: entry waits on the previous
				// iteration's exits.
				prevOff := (iter - 1) * idStride
				for _, e := range exits {
					deps = append(deps, e+prevOff)
				}
			}
			clone.Deps = nil
			if len(deps) > start {
				clone.Deps = deps[start:]
			}
			if clone.Kind == KindSend || clone.Kind == KindRecv {
				clone.Tag = node.Tag + iter*tagStride
			}
			out = append(out, clone)
		}
	}
	return out
}
