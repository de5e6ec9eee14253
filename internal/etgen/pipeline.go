package etgen

import (
	"fmt"

	"repro/internal/et"
	"repro/internal/topology"
	"repro/internal/units"
)

// PipelineConfig describes a GPipe-style pipeline-parallel training
// iteration: the model is split into Stages, microbatches stream through
// the pipeline (all forwards, then all backwards), activations travel
// between stages as point-to-point messages, and each stage's replicas
// synchronize gradients with a data-parallel All-Reduce at the end.
//
// This workload is the paper's motivating example for the graph-based
// execution engine: different NPUs execute different node sequences, which
// the original ASTRA-sim frontend could not express.
type PipelineConfig struct {
	Name string
	// Stages is the pipeline depth; must divide the machine size. Ranks
	// are blocked contiguously: stage s owns ranks [s*B, (s+1)*B).
	Stages int
	// MicroBatches is the number of microbatches per iteration.
	MicroBatches int
	// FlopsPerStage is the forward compute per microbatch per NPU;
	// backward costs twice that.
	FlopsPerStage float64
	// ActivationBytes is the inter-stage activation payload.
	ActivationBytes units.ByteSize
	// GradBytes is each NPU's gradient volume for the intra-stage
	// data-parallel All-Reduce (0 disables it).
	GradBytes units.ByteSize
}

// Pipeline generates the pipeline's trace. Unlike the symmetric
// generators, ranks run different node lists: a stage's list depends on
// whether it has a previous and a next stage. Peers are offsets from the
// issuing rank, so every rank of one such class shares one list, and the
// trace holds at most three.
func Pipeline(top *topology.Topology, cfg PipelineConfig) (*et.Trace, error) {
	n := top.NumNPUs()
	if cfg.Stages < 2 {
		return nil, fmt.Errorf("etgen: %s: need at least 2 stages", cfg.Name)
	}
	if n%cfg.Stages != 0 {
		return nil, fmt.Errorf("etgen: %s: %d stages do not divide %d NPUs", cfg.Name, cfg.Stages, n)
	}
	if cfg.MicroBatches < 1 || cfg.FlopsPerStage <= 0 || cfg.ActivationBytes <= 0 {
		return nil, fmt.Errorf("etgen: %s: invalid config", cfg.Name)
	}
	// Every list holds two computes per microbatch, so a larger count
	// cannot fit in one, and a count within the bound keeps the exact
	// counts below from overflowing.
	if cfg.MicroBatches > et.MaxListLen/2 {
		return nil, fmt.Errorf("etgen: %s: %d microbatches need more than the %d nodes a list holds", cfg.Name, cfg.MicroBatches, et.MaxListLen)
	}
	block := n / cfg.Stages

	// Intra-stage DP group: the contiguous block decomposes over physical
	// dims exactly like an MP grid of size `block`.
	var dpGroup *et.GroupRef
	if block > 1 && cfg.GradBytes > 0 {
		m, err := MapHybrid(top, block, cfg.Stages)
		if err != nil {
			return nil, fmt.Errorf("etgen: %s: stage block does not factor over the topology: %w", cfg.Name, err)
		}
		dpGroup = m.MPGroup()
	}
	dp := 0
	if dpGroup != nil {
		dp = 1
	}

	// Per microbatch and pass, a compute plus a receive from and a send to
	// each neighbouring stage. Every node but the first waits on one
	// earlier node. Every forward compute but the first also waits on its
	// receive when the stage has a previous stage, and every backward
	// compute does when it has a next one.
	size := func(hasPrev, hasNext int) (nodes, deps int) {
		nodes = 2*cfg.MicroBatches*(1+hasPrev+hasNext) + dp
		return nodes, nodes - 1 + hasPrev*(cfg.MicroBatches-1) + hasNext*cfg.MicroBatches
	}
	if err := checkStageLists(cfg.Name, cfg.Stages, size); err != nil {
		return nil, err
	}

	// Every stage class uses the same node names, so format each once.
	type mbNames struct{ fwdRecv, fwd, fwdSend, bwdRecv, bwd, bwdSend string }
	names := make([]mbNames, cfg.MicroBatches)
	for m := range names {
		names[m] = mbNames{
			fmt.Sprintf("fwd%d.recv", m), fmt.Sprintf("fwd%d", m), fmt.Sprintf("fwd%d.send", m),
			fmt.Sprintf("bwd%d.recv", m), fmt.Sprintf("bwd%d", m), fmt.Sprintf("bwd%d.send", m),
		}
	}
	const fwdTagBase, bwdTagBase = 1 << 16, 1 << 17
	build := func(b *graphBuilder, hasPrev, hasNext int) {
		// Forward waves.
		prev, lastFwd := 0, 0
		for m := 0; m < cfg.MicroBatches; m++ {
			in := 0
			if hasPrev > 0 {
				in = b.recv(names[m].fwdRecv, -block, fwdTagBase+m, int64(cfg.ActivationBytes), prev)
			}
			comp := b.compute(names[m].fwd, cfg.FlopsPerStage, int64(cfg.ActivationBytes), in, prev)
			lastFwd = comp
			if hasNext > 0 {
				lastFwd = b.send(names[m].fwdSend, block, fwdTagBase+m, int64(cfg.ActivationBytes), comp)
			}
			prev = comp // next microbatch can start once compute frees up
		}
		// Backward waves (GPipe: after all forwards).
		prevBwd := lastFwd
		for m := cfg.MicroBatches - 1; m >= 0; m-- {
			in := 0
			if hasNext > 0 {
				in = b.recv(names[m].bwdRecv, block, bwdTagBase+m, int64(cfg.ActivationBytes), prevBwd)
			}
			comp := b.compute(names[m].bwd, 2*cfg.FlopsPerStage, int64(cfg.ActivationBytes), in, prevBwd)
			if hasPrev > 0 {
				b.send(names[m].bwdSend, -block, bwdTagBase+m, int64(cfg.ActivationBytes), comp)
			}
			prevBwd = comp
		}
		// Intra-stage gradient synchronization.
		if dpGroup != nil {
			b.collective("dp_ar", et.CollAllReduce, int64(cfg.GradBytes), dpGroup, false, prevBwd)
		}
	}
	return stageTrace(cfg.Name, cfg.Stages, block, size, build), nil
}
