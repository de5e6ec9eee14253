// Package etgen generates execution traces for the paper's workloads
// (Table III): DLRM, GPT-3, Transformer-1T, a Mixture-of-Experts model for
// the disaggregated-memory study, and a pipeline-parallel transformer that
// exercises the asymmetric-graph capability of the execution engine. The
// generators encode parallelization strategies — data, tensor (model),
// pipeline, expert, and hybrid parallelism — purely as trace structure,
// which is the paper's core decoupling idea.
//
// Every generator writes compact lists: it gives its graph builder each
// list's exact node and dependency counts, so a list is one allocation of
// nodes held by value, and the nodes' deps are windows of one exactly
// sized array. Symmetric generators hand every rank the same list. A
// trace's peers are offsets from the issuing rank, so the pipeline
// generators (Pipeline, ThreeD) give every rank of a stage class one list,
// at most three per trace, and format each node name once for all of
// them.
package etgen

import (
	"fmt"

	"repro/internal/et"
	"repro/internal/topology"
)

// HybridMapping maps a model-parallel (MP) by data-parallel (DP) logical
// grid onto physical topology dimensions: MP occupies the innermost rank
// space (fastest-varying dimensions, the highest-bandwidth networks in the
// paper's systems), DP the outermost. When a boundary falls inside one
// physical dimension, strided spans split it — e.g. a 1-D 512-NPU wafer
// with MP=16 yields MP = Span{dim0, K=16, stride=1} and
// DP = Span{dim0, K=32, stride=16}.
type HybridMapping struct {
	MP []et.SpanRef
	DP []et.SpanRef
}

// MapGrid decomposes the machine into a logical grid of consecutive rank
// blocks: sizes[0] is the innermost (fastest-varying) factor. Each factor
// receives the spans covering its slice of the mixed-radix rank space.
// The product of sizes must equal the machine size and every factor
// boundary must fall on a divisor of the dimension it lands in. Factors of
// size 1 receive an empty span list (a trivial group).
func MapGrid(top *topology.Topology, sizes ...int) ([][]et.SpanRef, error) {
	n := top.NumNPUs()
	product := 1
	for _, s := range sizes {
		if s < 1 {
			return nil, fmt.Errorf("etgen: grid factor %d must be >= 1", s)
		}
		product *= s
	}
	if product != n {
		return nil, fmt.Errorf("etgen: grid %v covers %d ranks but the machine has %d NPUs", sizes, product, n)
	}
	out := make([][]et.SpanRef, len(sizes))
	dim, stride := 0, 1 // position within the current physical dimension
	for fi, factor := range sizes {
		remaining := factor
		for remaining > 1 {
			for dim < top.NumDims() && top.Dims[dim].Size/stride <= 1 {
				dim++
				stride = 1
			}
			if dim >= top.NumDims() {
				return nil, fmt.Errorf("etgen: grid %v exhausted the topology", sizes)
			}
			size := top.Dims[dim].Size / stride
			take := remaining
			if take >= size {
				if take%size != 0 {
					return nil, fmt.Errorf("etgen: grid factor %d does not factor across dim %d (size %d)",
						factor, dim+1, top.Dims[dim].Size)
				}
				take = size
			} else if size%take != 0 {
				return nil, fmt.Errorf("etgen: grid boundary %d does not divide dim %d residue %d",
					take, dim+1, size)
			}
			out[fi] = append(out[fi], et.SpanRef{Phys: dim, K: take, Stride: stride})
			remaining /= take
			stride *= take
		}
	}
	for fi, factor := range sizes {
		if got := spanProduct(out[fi]); factor > 1 && got != factor {
			return nil, fmt.Errorf("etgen: internal error: factor %d spans cover %d", factor, got)
		}
	}
	return out, nil
}

// MapHybrid computes the span decomposition for an MP x DP grid on top.
// mp*dp must equal the machine size, and the boundary must fall on a
// divisor of the dimension it lands in.
func MapHybrid(top *topology.Topology, mp, dp int) (HybridMapping, error) {
	grids, err := MapGrid(top, mp, dp)
	if err != nil {
		return HybridMapping{}, fmt.Errorf("etgen: MP %d x DP %d: %w", mp, dp, err)
	}
	return HybridMapping{MP: grids[0], DP: grids[1]}, nil
}

func spanProduct(spans []et.SpanRef) int {
	p := 1
	for _, s := range spans {
		p *= s.K
	}
	return p
}

// MPGroup returns the MP communicator reference, or nil when MP=1.
func (m HybridMapping) MPGroup() *et.GroupRef {
	if len(m.MP) == 0 {
		return nil
	}
	return &et.GroupRef{Spans: m.MP}
}

// DPGroup returns the DP communicator reference, or nil when DP=1.
func (m HybridMapping) DPGroup() *et.GroupRef {
	if len(m.DP) == 0 {
		return nil
	}
	return &et.GroupRef{Spans: m.DP}
}
