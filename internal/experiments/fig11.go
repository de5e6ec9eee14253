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
	return mustTopo(
		[]topology.DimModel{topology.Switch, topology.Switch},
		[]int{fig11GPUsPerNode, fig11Nodes},
		[]float64{460, 100},
	)
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
	cfg := etgen.MoE1T(useInSwitch)
	trace, err := etgen.MoETrace(top, cfg)
	if err != nil {
		return nil, err
	}
	sim, err := core.NewSimulator(core.Config{
		Topology: top,
		Compute:  fig11Compute(),
		Memory: memory.System{
			Local:   memory.LocalModel{Latency: units.Microsecond, Bandwidth: units.GBps(4096)},
			Pool:    pool,
			HasPool: true,
		},
		Policy:             collective.Baseline,
		Chunks:             32,
		CollectiveLogLimit: 1,
		Memo:               collMemo,
	})
	if err != nil {
		return nil, err
	}
	return sim.Run(trace)
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

// fig11Fingerprint identifies a MoE-1T run: the in-switch flag plus the
// full pool configuration (the GPU topology, compute model and workload
// are fixed across the study).
func fig11Fingerprint(inSwitch bool, pool memory.PoolConfig) string {
	return fmt.Sprintf("moe1t|inswitch=%t|%s", inSwitch, poolFingerprint(pool))
}

// Fig11 runs the three-bar comparison and the design-space sweep. With
// Reduced set only the sweep's corner points run (for tests); the full
// grid is 8 x 5 points. The HierMem baseline bar and the sweep's
// (256, 100) corner are the same configuration; the shared result cache
// simulates it once.
func Fig11(o Options) (*Fig11Result, error) {
	exec := o.Exec
	if exec.Cache == nil {
		// The bar grid and the sweep grid overlap; share results.
		exec.Cache = sweep.NewCache()
	}
	out := &Fig11Result{}

	// Grid 1: the two reference bars.
	barSystems := []string{string(SysZeroInfinity), string(SysHierMemBaseline)}
	barSpec := sweep.Spec[fig11Cell]{
		Name: "fig11-bars",
		Axes: []sweep.Axis{{Name: "system", Values: barSystems}},
		Cell: func(pt sweep.Point) (fig11Cell, error) {
			inSwitch := pt.Index("system") == 1
			pool := fig11ZeroPool()
			if inSwitch {
				pool = fig11Pool(256, 100)
			}
			stats, err := runFig11System(inSwitch, pool)
			if err != nil {
				return fig11Cell{}, err
			}
			return fig11Cell{pool: pool, stats: stats}, nil
		},
		Fingerprint: func(pt sweep.Point) string {
			if pt.Index("system") == 0 {
				return fig11Fingerprint(false, fig11ZeroPool())
			}
			return fig11Fingerprint(true, fig11Pool(256, 100))
		},
	}
	bars, err := sweep.Run(barSpec, exec)
	if err != nil {
		return nil, err
	}
	zero, base := bars.Rows[0].Value, bars.Rows[1].Value
	out.Bars = append(out.Bars,
		statsToBar(SysZeroInfinity, zero.stats, zero.pool),
		statsToBar(SysHierMemBaseline, base.stats, base.pool))

	// Grid 2: the design-space sweep (Section V-B): in-node fabric
	// 256..2048 step 256, remote group 100..500 step 100.
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
		Fingerprint: func(pt sweep.Point) string {
			pool := fig11Pool(inNodeGrid[pt.Index("in_node_gbps")], remoteGrid[pt.Index("remote_gbps")])
			return fig11Fingerprint(true, pool)
		},
	}
	grid, err := sweep.Run(sweepSpec, exec)
	if err != nil {
		return nil, err
	}
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
	diff := zero.stats.Makespan - base.stats.Makespan
	if diff < 0 {
		diff = -diff
	}
	out.ZeroVsBaselinePct = 100 * float64(diff) / float64(base.stats.Makespan)
	return out, nil
}
