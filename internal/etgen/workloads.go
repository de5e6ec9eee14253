package etgen

import (
	"fmt"

	"repro/internal/et"
	"repro/internal/topology"
	"repro/internal/units"
)

// TransformerConfig describes a dense transformer trained with hybrid
// tensor(MP) x data(DP) parallelism, Megatron-style: two activation
// All-Reduces over the MP group per layer per pass, and per-layer gradient
// All-Reduces over the DP group overlapped with the backward pass.
type TransformerConfig struct {
	Name string
	// Params is the total parameter count (e.g. 175e9 for GPT-3).
	Params float64
	Layers int
	Hidden int
	SeqLen int
	// MicroBatch is the per-replica batch size.
	MicroBatch int
	// BytesPerElem is the training precision (2 for fp16).
	BytesPerElem int
	// MP is the tensor-parallel degree; DP is derived as NPUs/MP.
	MP int
}

// GPT3 returns the paper's GPT-3 configuration (Table III: 175B parameters,
// MP 16).
func GPT3() TransformerConfig {
	return TransformerConfig{
		Name:   "GPT-3",
		Params: 175e9, Layers: 96, Hidden: 12288, SeqLen: 2048,
		MicroBatch: 1, BytesPerElem: 2, MP: 16,
	}
}

// Transformer1T returns the paper's Transformer-1T configuration
// (Table III: 1T parameters, MP 128).
func Transformer1T() TransformerConfig {
	return TransformerConfig{
		Name:   "Transformer-1T",
		Params: 1e12, Layers: 128, Hidden: 25600, SeqLen: 2048,
		MicroBatch: 1, BytesPerElem: 2, MP: 128,
	}
}

// Transformer generates one training iteration of the transformer over the
// topology. The trace is symmetric: every NPU runs the same graph, with
// communicator groups resolved per-rank at simulation time.
func Transformer(top *topology.Topology, cfg TransformerConfig) (*et.Trace, error) {
	n := top.NumNPUs()
	if cfg.MP < 1 {
		return nil, fmt.Errorf("etgen: %s: MP must be >= 1", cfg.Name)
	}
	if n%cfg.MP != 0 {
		return nil, fmt.Errorf("etgen: %s: MP %d does not divide %d NPUs", cfg.Name, cfg.MP, n)
	}
	dp := n / cfg.MP
	m, err := MapHybrid(top, cfg.MP, dp)
	if err != nil {
		return nil, err
	}
	if cfg.Layers < 1 || cfg.Params <= 0 || cfg.Hidden < 1 || cfg.SeqLen < 1 || cfg.MicroBatch < 1 || cfg.BytesPerElem < 1 {
		return nil, fmt.Errorf("etgen: %s: invalid model shape", cfg.Name)
	}

	paramsPerLayer := cfg.Params / float64(cfg.Layers)
	tokens := float64(cfg.MicroBatch * cfg.SeqLen)
	// Forward pass: ~2 FLOPs per parameter per token; backward: 2x.
	fwdFlops := 2 * paramsPerLayer * tokens / float64(cfg.MP)
	bwdFlops := 2 * fwdFlops
	// Roofline memory traffic: weights plus activations per layer shard.
	layerBytes := int64(paramsPerLayer) * int64(cfg.BytesPerElem) / int64(cfg.MP)
	actBytes := int64(cfg.MicroBatch*cfg.SeqLen*cfg.Hidden) * int64(cfg.BytesPerElem)
	// Megatron activation All-Reduce size.
	mpARBytes := actBytes
	// Per-layer gradient All-Reduce over DP (each NPU holds 1/MP of the
	// layer's gradients).
	dpARBytes := int64(paramsPerLayer) * int64(cfg.BytesPerElem) / int64(cfg.MP)

	mpGroup, dpGroup := m.MPGroup(), m.DPGroup()
	perLayer := 1 // nodes per layer and pass: the compute, plus two MP All-Reduces
	if mpGroup != nil {
		perLayer = 3
	}
	// Both passes, then the optimizer's load, step and store. Every node
	// but the first waits on one earlier node, and with DP the load also
	// waits on the gradient All-Reduce.
	nodes := 2*cfg.Layers*perLayer + 3
	deps := nodes - 1
	if dpGroup != nil {
		nodes++
		deps += 2
	}
	b := newGraphBuilder(nodes, deps)
	// Forward pass.
	prev := 0
	for l := 0; l < cfg.Layers; l++ {
		comp := b.compute(fmt.Sprintf("fwd%d", l), fwdFlops, layerBytes+actBytes, prev)
		cur := comp
		if mpGroup != nil {
			ar1 := b.collective(fmt.Sprintf("fwd%d.mp_ar0", l), et.CollAllReduce, mpARBytes, mpGroup, false, comp)
			ar2 := b.collective(fmt.Sprintf("fwd%d.mp_ar1", l), et.CollAllReduce, mpARBytes, mpGroup, false, ar1)
			cur = ar2
		}
		prev = cur
	}
	// Backward pass, reverse order.
	prevBwd := prev
	for l := cfg.Layers - 1; l >= 0; l-- {
		comp := b.compute(fmt.Sprintf("bwd%d", l), bwdFlops, layerBytes+actBytes, prevBwd)
		cur := comp
		if mpGroup != nil {
			ar1 := b.collective(fmt.Sprintf("bwd%d.mp_ar0", l), et.CollAllReduce, mpARBytes, mpGroup, false, comp)
			ar2 := b.collective(fmt.Sprintf("bwd%d.mp_ar1", l), et.CollAllReduce, mpARBytes, mpGroup, false, ar1)
			cur = ar2
		}
		prevBwd = cur
	}
	// Data-parallel gradient synchronization after the backward pass —
	// the paper-era Megatron training loop runs it unoverlapped, which is
	// what makes hybrid parallelism on hierarchical systems pay for using
	// only the DP dimensions' bandwidth (Section V-A-1).
	gar := 0
	if dpGroup != nil {
		gar = b.collective("dp_ar", et.CollAllReduce, dpARBytes*int64(cfg.Layers), dpGroup, false, prevBwd)
	}
	// Optimizer step: read and write the local parameter shard after the
	// backward pass and the gradient All-Reduce.
	load := b.memory("opt.load", et.MemLoad, et.MemLocal, int64(cfg.Params)*int64(cfg.BytesPerElem)/int64(n), prevBwd, gar)
	opt := b.compute("opt.step", cfg.Params/float64(n), 2*int64(cfg.Params)*int64(cfg.BytesPerElem)/int64(n), load)
	b.memory("opt.store", et.MemStore, et.MemLocal, int64(cfg.Params)*int64(cfg.BytesPerElem)/int64(n), opt)

	return symmetric(cfg.Name, n, b), nil
}

// DLRMConfig describes the recommendation-model workload: embedding
// exchange via All-to-All over all NPUs (model-parallel embeddings) and an
// MLP trained data-parallel with a global gradient All-Reduce (Table III:
// 57M MLP parameters, MP and DP spanning the machine).
type DLRMConfig struct {
	Name string
	// MLPParams is the dense-parameter count (57e6 in the paper).
	MLPParams float64
	// EmbExchangeBytes is the per-NPU All-to-All payload for the
	// embedding lookup exchange (forward; backward mirrors it).
	EmbExchangeBytes units.ByteSize
	// GradBytesPerElem is the gradient precision (4 for fp32).
	GradBytesPerElem int
	// BatchPerNPU scales MLP compute.
	BatchPerNPU int
}

// DLRM returns the paper's DLRM configuration: the dense gradient
// All-Reduce (57M fp32 parameters, 228 MB) dominates communication, with
// a moderate embedding-exchange All-to-All per pass.
func DLRM() DLRMConfig {
	return DLRMConfig{
		Name:             "DLRM",
		MLPParams:        57e6,
		EmbExchangeBytes: 16 * units.MB,
		GradBytesPerElem: 4,
		BatchPerNPU:      2048,
	}
}

// DLRMTrace generates one DLRM training iteration.
func DLRMTrace(top *topology.Topology, cfg DLRMConfig) (*et.Trace, error) {
	n := top.NumNPUs()
	if cfg.MLPParams <= 0 || cfg.EmbExchangeBytes <= 0 || cfg.BatchPerNPU < 1 || cfg.GradBytesPerElem < 1 {
		return nil, fmt.Errorf("etgen: %s: invalid config", cfg.Name)
	}
	b := newGraphBuilder(5, 4)
	full := (*et.GroupRef)(nil) // nil group = whole machine

	// Forward: embedding lookup exchange, then MLP.
	embFwd := b.collective("emb.fwd.a2a", et.CollAllToAll, int64(cfg.EmbExchangeBytes), full, false)
	mlpFlops := 2 * cfg.MLPParams * float64(cfg.BatchPerNPU)
	mlpFwd := b.compute("mlp.fwd", mlpFlops, int64(cfg.MLPParams)*int64(cfg.GradBytesPerElem), embFwd)
	// Backward: MLP, embedding-gradient exchange, dense gradient sync.
	mlpBwd := b.compute("mlp.bwd", 2*mlpFlops, int64(cfg.MLPParams)*int64(cfg.GradBytesPerElem), mlpFwd)
	b.collective("emb.bwd.a2a", et.CollAllToAll, int64(cfg.EmbExchangeBytes), full, false, mlpBwd)
	gradBytes := int64(cfg.MLPParams) * int64(cfg.GradBytesPerElem)
	b.collective("mlp.dp_ar", et.CollAllReduce, gradBytes, full, false, mlpBwd)

	return symmetric(cfg.Name, n, b), nil
}

// SingleCollective generates a trace that runs exactly one collective over
// the whole machine — the microbenchmark workload of Fig. 9's
// "All-Reduce (1GB)" columns and Table IV.
func SingleCollective(top *topology.Topology, coll et.CollectiveType, size units.ByteSize) *et.Trace {
	b := newGraphBuilder(1, 0)
	b.collective("coll", coll, int64(size), nil, false)
	return symmetric(fmt.Sprintf("%s(%v)", coll, size), top.NumNPUs(), b)
}
