package experiments

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/compute"
	"repro/internal/core"
	"repro/internal/etgen"
	"repro/internal/memory"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/units"
)

// Table V + Fig. 11 — the disaggregated-memory case study (Section V-B):
// training a 1T-parameter Mixture-of-Experts model on 256 GPUs whose
// parameters and optimizer state live beyond local HBM, comparing
//
//	ZeRO-Infinity:      each GPU streams its shard over a private remote
//	                    path (CPU+NVMe, Fig. 10) and materializes layers
//	                    with network All-Gathers;
//	HierMem (baseline): a shared hierarchical memory pool with in-switch
//	                    collectives (gather-on-load / reduce-on-store);
//	HierMem (opt):      the best sweep point of the pool's design space
//	                    (in-node pooled fabric 256..2048 GB/s x remote
//	                    group bandwidth 100..500 GB/s).
//
// The paper's findings: ZeRO-Infinity and the baseline HierMem perform
// within a fraction of a percent of each other (equivalent resources);
// exposed communication dominates both; and the swept optimum runs 4.6x
// faster than the baseline.

// Fig11System names one bar of the figure.
type Fig11System string

// The three systems.
const (
	SysZeroInfinity    Fig11System = "ZeRO-Infinity"
	SysHierMemBaseline Fig11System = "HierMem (baseline)"
	SysHierMemOpt      Fig11System = "HierMem (opt)"
)

// Fig11Bar is one stacked bar: the five-way runtime breakdown.
type Fig11Bar struct {
	System           Fig11System
	Compute          units.Time
	ExposedComm      units.Time
	ExposedRemoteMem units.Time
	ExposedLocalMem  units.Time
	ExposedIdle      units.Time
	Total            units.Time
	// InNodeFabricGBps / RemoteGroupGBps record the pool configuration
	// behind the bar (the opt bar carries the sweep winner).
	InNodeFabricGBps float64
	RemoteGroupGBps  float64
}

// SweepPoint is one cell of the Section V-B design-space sweep.
type SweepPoint struct {
	InNodeFabricGBps float64
	RemoteGroupGBps  float64
	Total            units.Time
}

// Fig11Result is the whole study.
type Fig11Result struct {
	Bars  []Fig11Bar
	Sweep []SweepPoint
	// SpeedupOptVsBaseline is the headline: the paper reports 4.6x.
	SpeedupOptVsBaseline float64
	// ZeroVsBaselinePct is |ZeRO - baseline| / baseline (paper: ~0.1%).
	ZeroVsBaselinePct float64
}

// Bar returns the named bar.
func (r *Fig11Result) Bar(sys Fig11System) (Fig11Bar, error) {
	for _, b := range r.Bars {
		if b.System == sys {
			return b, nil
		}
	}
	return Fig11Bar{}, fmt.Errorf("fig11: no bar %q", sys)
}

// Machine scale: 16 nodes x 16 GPUs (Fig. 6's running example at Table V's
// 256 remote memory groups).
const (
	fig11Nodes       = 16
	fig11GPUsPerNode = 16
)

// fig11Topology is the GPU network both systems share for activations and
// (in ZeRO-Infinity's case) parameter collectives: an in-node switch plus
// an out-node InfiniBand-class fabric. Bandwidths are shared-capacity
// (sent+received) figures.
func fig11Topology() *topology.Topology {
	notation := fmt.Sprintf("SW(%d)_SW(%d)", fig11GPUsPerNode, fig11Nodes)
	return buildFabrics(fabricSpec{"Fig11", notation, []float64{460, 100}})[0].Top
}

// fig11Compute is Table V's future-GPU: 2048 TFLOPS peak with 4096 GB/s of
// local HBM bandwidth.
func fig11Compute() compute.Model {
	return compute.Model{
		Peak:         units.TFLOPS(2048),
		MemBandwidth: units.GBps(4096),
		Efficiency:   0.5, // sustained MoE kernels
	}
}

// fig11Pool builds the HierMem pool for given sweep bandwidths.
func fig11Pool(inNodeGBps, remoteGBps float64) memory.PoolConfig {
	return memory.PoolConfig{
		Design:             memory.Hierarchical,
		NumNodes:           fig11Nodes,
		GPUsPerNode:        fig11GPUsPerNode,
		NumOutSwitches:     16,
		NumRemoteGroups:    256,
		ChunkSize:          256 * units.KiB,
		RemoteGroupBW:      units.GBps(remoteGBps),
		GPUSideOutFabricBW: units.GBps(8192),
		InNodeFabricBW:     units.GBps(inNodeGBps),
		Latency:            2 * units.Microsecond,
	}
}

// fig11ZeroPool is the ZeRO-Infinity substrate: one private CPU+NVMe path
// per GPU at the baseline remote bandwidth.
func fig11ZeroPool() memory.PoolConfig {
	return memory.PoolConfig{
		Design:          memory.PrivatePerGPU,
		NumNodes:        fig11Nodes,
		GPUsPerNode:     fig11GPUsPerNode,
		NumRemoteGroups: fig11Nodes * fig11GPUsPerNode,
		RemoteGroupBW:   units.GBps(100),
		Latency:         10 * units.Microsecond,
	}
}

// runFig11System simulates one MoE-1T iteration on one system.
func runFig11System(useInSwitch bool, pool memory.PoolConfig) (*core.RunStats, error) {
	top := fig11Topology()
	trace, err := etgen.MoETrace(top, etgen.MoE1T(useInSwitch))
	if err != nil {
		return nil, err
	}
	cfg := caseStudyConfig(top, collective.Baseline)
	cfg.Compute = fig11Compute()
	cfg.Memory = memory.System{
		Local:   memory.LocalModel{Latency: units.Microsecond, Bandwidth: units.GBps(4096)},
		Pool:    pool,
		HasPool: true,
	}
	return simulate(cfg, trace)
}

func statsToBar(sys Fig11System, stats *core.RunStats, pool memory.PoolConfig) Fig11Bar {
	m := stats.MeanBreakdown()
	return Fig11Bar{
		System:           sys,
		Compute:          m.Compute,
		ExposedComm:      m.ExposedComm,
		ExposedRemoteMem: m.ExposedRemoteMem,
		ExposedLocalMem:  m.ExposedLocalMem,
		ExposedIdle:      m.Idle,
		Total:            stats.Makespan,
		InNodeFabricGBps: pool.InNodeFabricBW.GBpsValue(),
		RemoteGroupGBps:  pool.RemoteGroupBW.GBpsValue(),
	}
}

// fig11Cell is one simulated system: its pool configuration and run stats.
type fig11Cell struct {
	pool  memory.PoolConfig
	stats *core.RunStats
}

// Fig11 runs the three-bar comparison and the design-space sweep. With
// Reduced set only the sweep's corner points run (for tests); the full
// grid is 8 x 5 points. The full and the reduced grid both start at (256,
// 100), the HierMem baseline's configuration, so the baseline bar is the
// sweep's first cell and is not simulated twice.
func Fig11(o Options) (*Fig11Result, error) {
	zeroPool := fig11ZeroPool()
	zero, err := runFig11System(false, zeroPool)
	if err != nil {
		return nil, err
	}

	// The design-space sweep (Section V-B): in-node fabric 256..2048 step
	// 256, remote group 100..500 step 100.
	inNodeGrid := []float64{256, 512, 768, 1024, 1280, 1536, 1792, 2048}
	remoteGrid := []float64{100, 200, 300, 400, 500}
	if o.Reduced {
		inNodeGrid = []float64{256, 512, 2048}
		remoteGrid = []float64{100, 500}
	}
	sweepSpec := sweep.Spec[fig11Cell]{
		Name: "fig11-sweep",
		Axes: []sweep.Axis{floatAxis("in_node_gbps", inNodeGrid), floatAxis("remote_gbps", remoteGrid)},
		Cell: func(pt sweep.Point) (fig11Cell, error) {
			pool := fig11Pool(inNodeGrid[pt.Index("in_node_gbps")], remoteGrid[pt.Index("remote_gbps")])
			stats, err := runFig11System(true, pool)
			if err != nil {
				return fig11Cell{}, err
			}
			return fig11Cell{pool: pool, stats: stats}, nil
		},
	}
	grid, err := sweep.Run(sweepSpec, o.Exec)
	if err != nil {
		return nil, err
	}
	base := grid.Rows[0].Value
	out := &Fig11Result{Bars: []Fig11Bar{
		statsToBar(SysZeroInfinity, zero, zeroPool),
		statsToBar(SysHierMemBaseline, base.stats, base.pool),
	}}
	// Best performance with least resource provision: strictly faster
	// wins; equal performance prefers the earlier (cheaper) grid point.
	var best fig11Cell
	for _, row := range grid.Rows {
		c := row.Value
		out.Sweep = append(out.Sweep, SweepPoint{
			InNodeFabricGBps: c.pool.InNodeFabricBW.GBpsValue(),
			RemoteGroupGBps:  c.pool.RemoteGroupBW.GBpsValue(),
			Total:            c.stats.Makespan,
		})
		if best.stats == nil || c.stats.Makespan < best.stats.Makespan {
			best = c
		}
	}
	out.Bars = append(out.Bars, statsToBar(SysHierMemOpt, best.stats, best.pool))

	out.SpeedupOptVsBaseline = float64(base.stats.Makespan) / float64(best.stats.Makespan)
	diff := zero.Makespan - base.stats.Makespan
	if diff < 0 {
		diff = -diff
	}
	out.ZeroVsBaselinePct = 100 * float64(diff) / float64(base.stats.Makespan)
	return out, nil
}
