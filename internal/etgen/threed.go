package etgen

import (
	"fmt"

	"repro/internal/et"
	"repro/internal/topology"
)

// ThreeDConfig describes 3D parallelism — the DeepSpeed/Megatron-LM
// strategy the paper names as a headline example of what the original
// ASTRA-sim frontend could not express (Section III-A): pipeline stages
// across the outermost rank blocks, tensor (model) parallelism innermost,
// and data parallelism in between. Ranks are laid out as
//
//	rank = mp + MP·(dp + DP·stage)
//
// so tensor-parallel groups sit on the highest-bandwidth inner dimensions,
// pipeline neighbours are a whole block apart, and activations cross the
// scale-out fabric — matching production 3D-parallel deployments.
type ThreeDConfig struct {
	Model TransformerConfig
	// Stages is the pipeline depth; Model.Layers must divide by it.
	Stages int
	// MicroBatches per iteration (GPipe schedule).
	MicroBatches int
}

// ThreeD generates one 3D-parallel training iteration. A stage's node
// list depends on whether it has a previous and a next stage, and peers
// are offsets from the issuing rank, so every rank of one such class
// shares one list, and the trace holds at most three.
func ThreeD(top *topology.Topology, cfg ThreeDConfig) (*et.Trace, error) {
	n := top.NumNPUs()
	model := cfg.Model
	if cfg.Stages < 2 {
		return nil, fmt.Errorf("etgen: %s: 3D parallelism needs >= 2 stages", model.Name)
	}
	if cfg.MicroBatches < 1 {
		return nil, fmt.Errorf("etgen: %s: need >= 1 microbatch", model.Name)
	}
	if model.MP < 1 || n%(model.MP*cfg.Stages) != 0 {
		return nil, fmt.Errorf("etgen: %s: MP %d x stages %d does not divide %d NPUs",
			model.Name, model.MP, cfg.Stages, n)
	}
	if model.Layers%cfg.Stages != 0 {
		return nil, fmt.Errorf("etgen: %s: %d layers do not split into %d stages",
			model.Name, model.Layers, cfg.Stages)
	}
	layersPerStage := model.Layers / cfg.Stages
	// Every list holds a forward and a backward compute per layer and
	// microbatch, so larger counts cannot fit in one, and counts within the
	// bounds keep the exact counts below from overflowing.
	if cfg.MicroBatches > et.MaxListLen/2 || layersPerStage > et.MaxListLen/2 {
		return nil, fmt.Errorf("etgen: %s: %d microbatches of %d layers per stage need more than the %d nodes a list holds",
			model.Name, cfg.MicroBatches, layersPerStage, et.MaxListLen)
	}
	dp := n / model.MP / cfg.Stages
	grids, err := MapGrid(top, model.MP, dp, cfg.Stages)
	if err != nil {
		return nil, err
	}
	mpGroup := groupRefOrNil(grids[0])
	dpGroup := groupRefOrNil(grids[1])

	paramsPerLayer := model.Params / float64(model.Layers)
	tokens := float64(model.MicroBatch * model.SeqLen)
	fwdFlops := 2 * paramsPerLayer * tokens / float64(model.MP)
	bwdFlops := 2 * fwdFlops
	layerBytes := int64(paramsPerLayer) * int64(model.BytesPerElem) / int64(model.MP)
	actBytes := int64(model.MicroBatch*model.SeqLen*model.Hidden) * int64(model.BytesPerElem)
	// Stage gradients: this rank's slice of its stage's parameters.
	gradBytes := int64(paramsPerLayer) * int64(layersPerStage) * int64(model.BytesPerElem) / int64(model.MP)

	block := model.MP * dp
	const fwdTagBase, bwdTagBase = 1 << 20, 1 << 21
	perLayer := 1 // nodes per layer and pass: the compute, plus two MP All-Reduces
	if mpGroup != nil {
		perLayer = 3
	}
	dpNodes := 0
	if dpGroup != nil {
		dpNodes = 1
	}

	// Per microbatch and pass, the stage's layers plus a receive from and a
	// send to each neighbouring stage, then the optimizer's load, step and
	// store. Every node but the first waits on exactly one earlier node.
	size := func(hasPrev, hasNext int) (nodes, deps int) {
		nodes = 2*cfg.MicroBatches*(hasPrev+hasNext+perLayer*layersPerStage) + dpNodes + 3
		return nodes, nodes - 1
	}
	if err := checkStageLists(model.Name, cfg.Stages, size); err != nil {
		return nil, err
	}

	// Every stage class uses the same node names, so format each once: per
	// microbatch, the receive and send of each pass and each pass's layer
	// names, three per layer with MP (the compute and two All-Reduces).
	layerNames := func(prefix string) []string {
		out := make([]string, 0, perLayer*layersPerStage)
		for l := 0; l < layersPerStage; l++ {
			out = append(out, fmt.Sprintf("%s.l%d", prefix, l))
			if mpGroup != nil {
				out = append(out, fmt.Sprintf("%s.l%d.mp_ar0", prefix, l), fmt.Sprintf("%s.l%d.mp_ar1", prefix, l))
			}
		}
		return out
	}
	type mbNames struct {
		fwdRecv, fwdSend, bwdRecv, bwdSend string
		fwd, bwd                           []string
	}
	names := make([]mbNames, cfg.MicroBatches)
	for m := range names {
		names[m] = mbNames{
			fwdRecv: fmt.Sprintf("fwd%d.recv", m), fwdSend: fmt.Sprintf("fwd%d.send", m),
			bwdRecv: fmt.Sprintf("bwd%d.recv", m), bwdSend: fmt.Sprintf("bwd%d.send", m),
			fwd: layerNames(fmt.Sprintf("fwd%d", m)), bwd: layerNames(fmt.Sprintf("bwd%d", m)),
		}
	}

	build := func(b *graphBuilder, hasPrev, hasNext int) {
		// stageWork emits one pass over this stage's layers and returns
		// the last node.
		stageWork := func(names []string, entry int, flops float64) int {
			prev := entry
			for l := 0; l < layersPerStage; l++ {
				comp := b.compute(names[perLayer*l], flops, layerBytes+actBytes, prev)
				cur := comp
				if mpGroup != nil {
					ar1 := b.collective(names[3*l+1], et.CollAllReduce, actBytes, mpGroup, false, comp)
					ar2 := b.collective(names[3*l+2], et.CollAllReduce, actBytes, mpGroup, false, ar1)
					cur = ar2
				}
				prev = cur
			}
			return prev
		}

		prev, lastFwd := 0, 0
		for m := 0; m < cfg.MicroBatches; m++ {
			in := 0
			if hasPrev > 0 {
				in = b.recv(names[m].fwdRecv, -block, fwdTagBase+m, actBytes, prev)
			}
			entry := in
			if entry == 0 {
				entry = prev
			}
			out := stageWork(names[m].fwd, entry, fwdFlops)
			lastFwd = out
			if hasNext > 0 {
				lastFwd = b.send(names[m].fwdSend, block, fwdTagBase+m, actBytes, out)
			}
			prev = out
		}

		prevBwd := lastFwd
		for m := cfg.MicroBatches - 1; m >= 0; m-- {
			in := 0
			if hasNext > 0 {
				in = b.recv(names[m].bwdRecv, block, bwdTagBase+m, actBytes, prevBwd)
			}
			entry := in
			if entry == 0 {
				entry = prevBwd
			}
			out := stageWork(names[m].bwd, entry, bwdFlops)
			if hasPrev > 0 {
				b.send(names[m].bwdSend, -block, bwdTagBase+m, actBytes, out)
			}
			prevBwd = out
		}

		// Unoverlapped data-parallel gradient synchronization per stage.
		optDep := prevBwd
		if dpGroup != nil {
			optDep = b.collective("dp_ar", et.CollAllReduce, gradBytes, dpGroup, false, prevBwd)
		}
		shard := int64(paramsPerLayer) * int64(layersPerStage) * int64(model.BytesPerElem) / int64(block)
		load := b.memory("opt.load", et.MemLoad, et.MemLocal, shard, optDep)
		opt := b.compute("opt.step", float64(shard), 2*shard, load)
		b.memory("opt.store", et.MemStore, et.MemLocal, shard, opt)
	}
	return stageTrace(fmt.Sprintf("%s/3D(mp%d,dp%d,pp%d)", model.Name, model.MP, dp, cfg.Stages), cfg.Stages, block, size, build), nil
}

func groupRefOrNil(spans []et.SpanRef) *et.GroupRef {
	if len(spans) == 0 {
		return nil
	}
	return &et.GroupRef{Spans: spans}
}
