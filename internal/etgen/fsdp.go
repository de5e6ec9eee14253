package etgen

import (
	"fmt"

	"repro/internal/et"
	"repro/internal/topology"
)

// FSDPConfig describes fully-sharded data parallelism (FSDP / ZeRO-3), the
// other headline strategy the paper's Section III names: parameters,
// gradients, and optimizer state are sharded across all ranks; each layer
// is materialized with an All-Gather before use (forward and backward) and
// gradients leave as a Reduce-Scatter. Layer-granular prefetch overlaps
// the next layer's gather with the current layer's compute.
type FSDPConfig struct {
	Model TransformerConfig
}

// FSDP generates one fully-sharded training iteration across the whole
// machine. The trace is symmetric.
func FSDP(top *topology.Topology, cfg FSDPConfig) (*et.Trace, error) {
	n := top.NumNPUs()
	model := cfg.Model
	if model.Layers < 1 || model.Params <= 0 || model.MicroBatch < 1 || model.BytesPerElem < 1 {
		return nil, fmt.Errorf("etgen: FSDP %s: invalid model shape", model.Name)
	}
	paramsPerLayer := model.Params / float64(model.Layers)
	tokens := float64(model.MicroBatch * model.SeqLen)
	fwdFlops := 2 * paramsPerLayer * tokens
	bwdFlops := 2 * fwdFlops
	// Full layer weights materialized per rank.
	layerBytes := int64(paramsPerLayer) * int64(model.BytesPerElem)
	actBytes := int64(model.MicroBatch*model.SeqLen*model.Hidden) * int64(model.BytesPerElem)

	// Per layer a forward gather and compute and a backward gather, compute
	// and reduce-scatter, then the optimizer's load, step and store. Every
	// node but the first waits on one earlier node; every compute after the
	// first, every reduce-scatter after the first and the load also wait
	// on a second one.
	b := newGraphBuilder(5*model.Layers+3, 8*model.Layers+1)
	full := (*et.GroupRef)(nil)

	// Forward: gather each layer, compute; prefetch next layer's gather.
	prevGather, prevComp := 0, 0
	for l := 0; l < model.Layers; l++ {
		ag := b.collective(fmt.Sprintf("fwd%d.ag", l), et.CollAllGather, layerBytes, full, false, prevGather)
		comp := b.compute(fmt.Sprintf("fwd%d", l), fwdFlops, layerBytes+actBytes, ag, prevComp)
		prevGather, prevComp = ag, comp
	}

	// Backward: regather each layer (weights were freed), compute, then
	// reduce-scatter its gradients.
	prevBwd := prevComp
	prevRS := 0
	for l := model.Layers - 1; l >= 0; l-- {
		ag := b.collective(fmt.Sprintf("bwd%d.ag", l), et.CollAllGather, layerBytes, full, false, prevGather)
		comp := b.compute(fmt.Sprintf("bwd%d", l), bwdFlops, layerBytes+actBytes, ag, prevBwd)
		rs := b.collective(fmt.Sprintf("bwd%d.rs", l), et.CollReduceScatter, layerBytes, full, false, comp, prevRS)
		prevGather, prevBwd, prevRS = ag, comp, rs
	}

	// Optimizer on the local shard.
	shard := int64(model.Params) * int64(model.BytesPerElem) / int64(n)
	load := b.memory("opt.load", et.MemLoad, et.MemLocal, shard, prevRS, prevBwd)
	opt := b.compute("opt.step", float64(shard), 2*shard, load)
	b.memory("opt.store", et.MemStore, et.MemLocal, shard, opt)

	return symmetric(model.Name+"/FSDP", n, b), nil
}
