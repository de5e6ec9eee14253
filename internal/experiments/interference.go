package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/et"
	"repro/internal/etgen"
	"repro/internal/memory"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/units"
)

// Interference — the multi-tenancy case study. Three 128-NPU cluster
// fabrics host 1-8 co-scheduled 16-NPU training jobs under packed
// placement, and each cell reports the jobs' mean slowdown against the
// isolated run of the same carved-out 16-NPU machine:
//
//	SW-Flat     SW(8)_SW(16)      fully-provisioned spine
//	SW-Taper4   SW(8)_SW(16,4)    spine 4:1 oversubscribed
//	Torus-Pods  T2D(4,4)_SW(8,4)  jobs own whole torus pods; only the
//	                              memory pool is shared
//
// The workloads pick apart the sharing mechanisms: GPT-3's tensor-parallel
// hierarchical All-Reduce shrinks per level and barely touches the spine;
// DLRM's All-to-All keeps its full payload on every level and saturates an
// oversubscribed spine as jobs pile on; MoE-1T streams its expert shards
// from the shared disaggregated pool, which contends even on fabrics where
// the network does not. The headline property — per-job slowdown is
// monotonically non-decreasing in the co-located job count, and exactly
// 1.0 wherever capacity suffices — is what the golden suite locks in.

// WLMoE is the pool-bound MoE workload of the interference study.
const WLMoE Workload = "MoE-1T"

// InterferenceCell is one (fabric, workload, job count) measurement.
type InterferenceCell struct {
	Fabric   string
	Workload Workload
	Jobs     int
	// Isolated is the job's makespan alone on its carved-out machine;
	// MeanMakespan averages the co-scheduled jobs' spans.
	Isolated     units.Time
	MeanMakespan units.Time
	// MeanSlowdown is MeanMakespan/Isolated (1.0 = no interference);
	// MaxSlowdown is the worst job's.
	MeanSlowdown float64
	MaxSlowdown  float64
}

// InterferenceResult holds the study grid.
type InterferenceResult struct {
	Cells []InterferenceCell
}

// Cell looks up one measurement.
func (r *InterferenceResult) Cell(fabric string, wl Workload, jobs int) (InterferenceCell, error) {
	for _, c := range r.Cells {
		if c.Fabric == fabric && c.Workload == wl && c.Jobs == jobs {
			return c, nil
		}
	}
	return InterferenceCell{}, fmt.Errorf("interference: no cell %s/%s/%d", fabric, wl, jobs)
}

// interferenceFabrics returns the three cluster fabrics.
func interferenceFabrics() []System {
	specs := []fabricSpec{
		{"SW-Flat", "SW(8)_SW(16)", []float64{250, 250}},
		{"SW-Taper4", "SW(8)_SW(16,4)", []float64{250, 250}},
		{"Torus-Pods", "T2D(4,4)_SW(8,4)", []float64{500, 250}},
	}
	out := make([]System, 0, len(specs))
	for _, s := range specs {
		out = append(out, buildFabric(s))
	}
	return out
}

// InterferenceWorkloads lists the study's workloads.
func InterferenceWorkloads() []Workload { return []Workload{WLGPT3, WLDLRM, WLMoE} }

// InterferenceJobCounts lists the co-location axis.
func InterferenceJobCounts() []int { return []int{1, 2, 4, 8} }

// interferenceJobNPUs is the per-job allocation: two leaf-switch ports (or
// one whole torus pod) per job.
const interferenceJobNPUs = 16

// interferenceTrace builds one job's trace generator.
func interferenceTrace(wl Workload, o Options) (cluster.TraceFunc, error) {
	switch wl {
	case WLGPT3:
		cfg := etgen.GPT3()
		cfg.Layers /= o.layersDivisor()
		return func(top *topology.Topology) (*et.Trace, error) {
			return etgen.Transformer(top, cfg)
		}, nil
	case WLDLRM:
		return func(top *topology.Topology) (*et.Trace, error) {
			return etgen.DLRMTrace(top, etgen.DLRM())
		}, nil
	case WLMoE:
		cfg := etgen.MoE1T(false)
		cfg.Layers /= o.layersDivisor()
		if cfg.Layers < 1 {
			cfg.Layers = 1
		}
		return func(top *topology.Topology) (*et.Trace, error) {
			return etgen.MoETrace(top, cfg)
		}, nil
	default:
		return nil, fmt.Errorf("interference: unknown workload %q", wl)
	}
}

// interferencePool is the shared disaggregated pool the MoE jobs stream
// from: 8 remote groups behind 4 out-node switches for the 128-GPU
// cluster, Table V-class bandwidths.
func interferencePool() memory.PoolConfig {
	return memory.PoolConfig{
		Design: memory.Hierarchical, NumNodes: 16, GPUsPerNode: 8,
		NumOutSwitches: 4, NumRemoteGroups: 8,
		RemoteGroupBW: units.GBps(100), GPUSideOutFabricBW: units.GBps(100),
		InNodeFabricBW: units.GBps(256),
	}
}

// interferenceMemory returns the cluster-wide memory system for a
// workload: MoE attaches the shared pool, the network-bound workloads run
// on local HBM alone.
func interferenceMemory(wl Workload) memory.System {
	sys := memory.System{
		Local: memory.LocalModel{Latency: units.Microsecond, Bandwidth: units.GBps(2039)},
	}
	if wl == WLMoE {
		sys.HasPool = true
		sys.Pool = interferencePool()
	}
	return sys
}

// runInterferenceCell co-simulates n identical jobs and their isolated
// baseline.
func runInterferenceCell(sys System, wl Workload, n int, o Options) (InterferenceCell, error) {
	traceFn, err := interferenceTrace(wl, o)
	if err != nil {
		return InterferenceCell{}, err
	}
	mkConfig := func(jobs int) cluster.Config {
		cfg := cluster.Config{
			Fabric:    sys.Top,
			Compute:   npuModel(),
			Memory:    interferenceMemory(wl),
			Chunks:    o.chunks(),
			Placement: cluster.Packed,
		}
		for j := 0; j < jobs; j++ {
			cfg.Jobs = append(cfg.Jobs, cluster.JobConfig{
				Name: fmt.Sprintf("%s#%d", wl, j), NPUs: interferenceJobNPUs, Trace: traceFn,
			})
		}
		return cfg
	}
	// Every cell simulates its own isolated baseline, so cells stay
	// independent of one another and of the worker count; the n=1 cell IS
	// its own baseline, so it simulates once.
	iso, err := cluster.Run(mkConfig(1))
	if err != nil {
		return InterferenceCell{}, fmt.Errorf("%s/%s isolated: %w", sys.Name, wl, err)
	}
	res := iso
	if n != 1 {
		res, err = cluster.Run(mkConfig(n))
		if err != nil {
			return InterferenceCell{}, fmt.Errorf("%s/%s x%d: %w", sys.Name, wl, n, err)
		}
	}
	cell := InterferenceCell{
		Fabric:   sys.Name,
		Workload: wl,
		Jobs:     n,
		Isolated: iso.Jobs[0].Stats.Makespan,
	}
	var sum units.Time
	for _, jr := range res.Jobs {
		sum += jr.Stats.Makespan
		if s := float64(jr.Stats.Makespan) / float64(cell.Isolated); s > cell.MaxSlowdown {
			cell.MaxSlowdown = s
		}
	}
	cell.MeanMakespan = sum / units.Time(n)
	cell.MeanSlowdown = float64(cell.MeanMakespan) / float64(cell.Isolated)
	return cell, nil
}

// Interference runs the fabric x workload x job-count grid on the sweep
// engine.
func Interference(o Options) (*InterferenceResult, error) {
	systems := interferenceFabrics()
	wls := InterferenceWorkloads()
	counts := InterferenceJobCounts()
	wlNames := make([]string, len(wls))
	for i, wl := range wls {
		wlNames[i] = string(wl)
	}
	spec := sweep.Spec[InterferenceCell]{
		Name: "interference",
		Axes: []sweep.Axis{
			systemAxis(systems),
			{Name: "workload", Values: wlNames},
			intAxis("jobs", counts),
		},
		Cell: func(pt sweep.Point) (InterferenceCell, error) {
			return runInterferenceCell(systems[pt.Index("system")], wls[pt.Index("workload")],
				counts[pt.Index("jobs")], o)
		},
	}
	res, err := sweep.Run(spec, o.Exec)
	if err != nil {
		return nil, err
	}
	return &InterferenceResult{Cells: res.Values()}, nil
}
