package etgen

import (
	"fmt"

	"repro/internal/et"
	"repro/internal/topology"
	"repro/internal/units"
)

// MoEConfig describes one training iteration of a Mixture-of-Experts model
// whose parameters live in a disaggregated memory pool — the workload of
// the paper's Section V-B study (DeepSpeed-MoE-style 1T-parameter model).
//
// Two parameter-movement regimes are supported:
//
//   - ZeRO-Infinity style (UseInSwitch=false): each layer's shard is
//     loaded from the GPU's private remote path (remote MEM node), then
//     All-Gathered over the network; gradients are Reduce-Scattered over
//     the network and the shard stored back.
//   - HierMem in-switch style (UseInSwitch=true): the gather happens in
//     the memory-fabric switches while loading and the reduce while
//     storing (Section IV-D.3), fusing each (load+collective) pair into a
//     single in-switch collective node.
type MoEConfig struct {
	Name   string
	Layers int
	// LayerParamBytes is the per-GPU gathered working set per layer (the
	// dense weights every GPU needs materialized).
	LayerParamBytes units.ByteSize
	// ShardBytes is the per-GPU slice of a layer held in remote memory.
	ShardBytes units.ByteSize
	// A2ABytes is the per-NPU expert-routing All-to-All payload per layer
	// (forward and backward each).
	A2ABytes units.ByteSize
	// FlopsPerLayer is the per-NPU forward compute per layer; backward
	// costs twice that.
	FlopsPerLayer float64
	// UseInSwitch selects the HierMem fused path.
	UseInSwitch bool
}

// MoE1T returns the 1-trillion-parameter Mixture-of-Experts configuration
// used in the disaggregated-memory case study. The dense (non-expert)
// working set per layer and the expert compute are sized for a
// DeepSpeed-MoE-style model at 256 GPUs; the generator only fixes the
// trace structure — the Fig. 11 experiment supplies the system configs.
func MoE1T(useInSwitch bool) MoEConfig {
	return MoEConfig{
		Name:   "MoE-1T",
		Layers: 24,
		// Dense (shared) weights gathered by every GPU per layer.
		LayerParamBytes: 1000 * units.MB,
		// Expert + optimizer slice streamed from remote memory per GPU
		// per layer: ~1T x 2 bytes / 24 layers / 256 GPUs.
		ShardBytes: 325 * units.MB,
		// Expert-routing exchange per pass; MoE activations are sparse.
		A2ABytes: 16 * units.MB,
		// MoE compute per GPU is small: each token touches only its
		// routed expert.
		FlopsPerLayer: 5e11,
		UseInSwitch:   useInSwitch,
	}
}

// MoETrace generates one MoE training iteration. Parameter fetches are
// double-buffered: layer l+1's fetch depends only on layer l's fetch, so
// it overlaps with layer l's compute — matching ZeRO-Infinity's prefetch
// behaviour and letting the runtime breakdown expose whichever resource is
// the true bottleneck.
func MoETrace(top *topology.Topology, cfg MoEConfig) (*et.Trace, error) {
	n := top.NumNPUs()
	if cfg.Layers < 1 || cfg.LayerParamBytes <= 0 || cfg.ShardBytes < 0 || cfg.FlopsPerLayer <= 0 {
		return nil, fmt.Errorf("etgen: %s: invalid config", cfg.Name)
	}
	a2a := 0 // All-to-All nodes per layer and pass
	if cfg.A2ABytes > 0 {
		a2a = 1
	}
	// Per layer, a fetch's load and gather, a compute and the All-to-All
	// forward, and a compute, the All-to-All and a flush's reduce-scatter
	// and store backward. Every node but the first waits on one earlier
	// node; every forward compute and every reduce-scatter after the first
	// also wait on a second one.
	nodes := cfg.Layers * (6 + 2*a2a)
	b := newGraphBuilder(nodes, nodes-1+2*(cfg.Layers-1))
	full := (*et.GroupRef)(nil)

	// Forward pass with pipelined parameter fetches.
	prevFetch, prevComp := 0, 0
	for l := 0; l < cfg.Layers; l++ {
		fetch := b.fetchParams(cfg, l, prevFetch)
		comp := b.compute(fmt.Sprintf("fwd%d", l), cfg.FlopsPerLayer, int64(cfg.LayerParamBytes), fetch, prevComp)
		cur := comp
		if cfg.A2ABytes > 0 {
			cur = b.collective(fmt.Sprintf("fwd%d.a2a", l), et.CollAllToAll, int64(cfg.A2ABytes), full, false, comp)
		}
		prevFetch, prevComp = fetch, cur
	}

	// Backward pass: recompute-free, gradients flushed per layer.
	prevBwd := prevComp
	prevFlush := 0
	for l := cfg.Layers - 1; l >= 0; l-- {
		comp := b.compute(fmt.Sprintf("bwd%d", l), 2*cfg.FlopsPerLayer, int64(cfg.LayerParamBytes), prevBwd)
		cur := comp
		if cfg.A2ABytes > 0 {
			cur = b.collective(fmt.Sprintf("bwd%d.a2a", l), et.CollAllToAll, int64(cfg.A2ABytes), full, false, comp)
		}
		prevFlush = b.flushGrads(cfg, l, comp, prevFlush)
		prevBwd = cur
	}
	_ = prevFlush
	return symmetric(cfg.Name, n, b), nil
}

// fetchParams emits the parameter-materialization subgraph for one layer
// and returns the node the layer's compute must depend on.
func (b *graphBuilder) fetchParams(cfg MoEConfig, l, prevFetch int) int {
	// The expert + optimizer slice streams from remote memory in both
	// regimes; the difference is how the shared dense weights are
	// materialized.
	load := b.memory(fmt.Sprintf("fetch%d.load", l), et.MemLoad, et.MemRemote, int64(cfg.ShardBytes), prevFetch)
	if cfg.UseInSwitch {
		// Gather-on-load fused into the memory fabric.
		return b.collective(fmt.Sprintf("fetch%d.insw_ag", l), et.CollAllGather,
			int64(cfg.LayerParamBytes), nil, true, load)
	}
	// ZeRO-Infinity: a network All-Gather materializes the dense layer.
	return b.collective(fmt.Sprintf("fetch%d.ag", l), et.CollAllGather,
		int64(cfg.LayerParamBytes), nil, false, load)
}

// flushGrads emits the gradient-drain subgraph for one layer.
func (b *graphBuilder) flushGrads(cfg MoEConfig, l, bwdComp, prevFlush int) int {
	if cfg.UseInSwitch {
		// Reduce-on-store fused into the memory fabric, then the expert
		// slice streams back.
		rs := b.collective(fmt.Sprintf("grad%d.insw_rs", l), et.CollReduceScatter,
			int64(cfg.LayerParamBytes), nil, true, bwdComp, prevFlush)
		return b.memory(fmt.Sprintf("grad%d.store", l), et.MemStore, et.MemRemote, int64(cfg.ShardBytes), rs)
	}
	rs := b.collective(fmt.Sprintf("grad%d.rs", l), et.CollReduceScatter,
		int64(cfg.LayerParamBytes), nil, false, bwdComp, prevFlush)
	return b.memory(fmt.Sprintf("grad%d.store", l), et.MemStore, et.MemRemote, int64(cfg.ShardBytes), rs)
}
