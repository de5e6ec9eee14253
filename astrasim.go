// Package astrasim is the public API of the ASTRA-sim 2.0 reproduction: a
// simulator for distributed deep-learning training platforms that models
// arbitrary parallelization strategies (as execution-trace graphs),
// multi-dimensional hierarchical networks (as stacked building blocks —
// Ring, FullyConnected, Switch, oversubscribed Switch, Mesh, 2D Torus, or
// any dimension model in the block table — with an analytical performance
// model), and memory systems from local HBM to disaggregated pools with
// in-switch collectives.
//
// Quick start:
//
//	m, err := astrasim.NewMachine(astrasim.MachineConfig{
//	    Topology:       "R(2)_FC(8)_R(8)_SW(4)",
//	    BandwidthsGBps: []float64{250, 200, 100, 50},
//	    PeakTFLOPS:     234,
//	})
//	report, err := m.Run(astrasim.AllReduce(1 << 30))
//	fmt.Println(report.Makespan, report.ExposedComm)
//
// Durations are reported as time.Duration (nanosecond resolution; the
// simulator computes at picosecond resolution internally).
package astrasim

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/chrometrace"
	"repro/internal/collective"
	"repro/internal/compute"
	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/et"
	"repro/internal/etgen"
	"repro/internal/memory"
	"repro/internal/scenario"
	"repro/internal/topology"
	"repro/internal/units"
)

// MachineConfig describes a simulated training platform.
type MachineConfig struct {
	// Topology is the paper's shape notation, e.g. "R(4)_SW(2)",
	// "Ring(16)_FullyConnected(8)_Switch(4)", "T2D(16,16)" (a 16x16
	// torus), "M(8)" (a wrap-free mesh), or "SW(32,4)" (a 4:1
	// oversubscribed switch). Block names resolve through the topology
	// package's block table.
	Topology string
	// BandwidthsGBps gives each dimension's per-NPU shared bandwidth in
	// GB/s, positionally (Table II convention).
	BandwidthsGBps []float64
	// HopLatencyNs is the per-hop link latency (default 500 ns).
	HopLatencyNs float64

	// PeakTFLOPS is the NPU's peak compute rate (default 234, the
	// paper's A100 measurement). HBMGBps is the local memory bandwidth
	// bounding memory-bound operators (default 2039). Efficiency derates
	// sustained FLOPS (default 1.0).
	PeakTFLOPS float64
	HBMGBps    float64
	Efficiency float64

	// Scheduler selects the collective chunk scheduler: "baseline"
	// (default) or "themis".
	Scheduler string
	// Chunks is the collective pipelining depth (default 64).
	Chunks int
	// ModelTransitCongestion enables first-order congestion: ring
	// point-to-point messages occupy every transit link, making strided
	// pipeline traffic contend with its neighbours.
	ModelTransitCongestion bool

	// Memory optionally configures local-memory timing and a
	// disaggregated pool.
	Memory *MemoryConfig
}

// MemoryConfig configures the memory system.
type MemoryConfig struct {
	LocalLatencyNs float64 // default 1000
	LocalGBps      float64 // default = HBMGBps

	// Pool, when non-nil, attaches a disaggregated memory pool.
	Pool *PoolConfig
}

// PoolConfig mirrors the paper's Table V parameters.
type PoolConfig struct {
	// Design: "hierarchical" (default), "multi-level-switch", "ring",
	// "mesh", or "private" (ZeRO-Infinity-style per-GPU paths).
	Design          string
	Nodes           int
	GPUsPerNode     int
	OutSwitches     int
	RemoteGroups    int
	RemoteGroupGBps float64
	GPUSideGBps     float64
	InNodeGBps      float64
	ChunkBytes      int64
	LatencyUs       float64
}

// Machine is a configured platform ready to run workloads. Each run builds
// its own simulator from the machine's immutable configuration, so sweeps
// share one machine across goroutines.
type Machine struct {
	top  *topology.Topology
	core core.Config
}

// NewMachine validates the configuration and builds a machine.
func NewMachine(cfg MachineConfig) (*Machine, error) {
	if err := cfg.checkFloats(); err != nil {
		return nil, err
	}
	if cfg.HopLatencyNs == 0 {
		cfg.HopLatencyNs = 500
	}
	top, err := topology.ParseWithBandwidth(cfg.Topology, cfg.BandwidthsGBps, units.FromNanos(cfg.HopLatencyNs))
	if err != nil {
		return nil, err
	}
	if cfg.PeakTFLOPS == 0 {
		cfg.PeakTFLOPS = 234
	}
	if cfg.HBMGBps == 0 {
		cfg.HBMGBps = 2039
	}
	comp := compute.Model{
		Peak:         units.TFLOPS(cfg.PeakTFLOPS),
		MemBandwidth: units.GBps(cfg.HBMGBps),
		Efficiency:   cfg.Efficiency,
	}
	var policy collective.Policy
	switch cfg.Scheduler {
	case "", "baseline":
		policy = collective.Baseline
	case "themis":
		policy = collective.Themis
	default:
		return nil, fmt.Errorf("astrasim: unknown scheduler %q (want baseline or themis)", cfg.Scheduler)
	}
	mem, err := buildMemory(cfg)
	if err != nil {
		return nil, err
	}
	c := core.Config{
		Topology:               top,
		Compute:                comp,
		Memory:                 mem,
		Policy:                 policy,
		Chunks:                 cfg.Chunks,
		ModelTransitCongestion: cfg.ModelTransitCongestion,
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &Machine{top: top, core: c}, nil
}

// namedFloat is one float field of a spec, named as the spec names it.
type namedFloat struct {
	name string
	v    float64
}

// checkFinite returns an error naming the first field whose value is NaN or
// infinite. Range checks such as v <= 0 let NaN through, and Go leaves the
// conversion of NaN to an integer time implementation-defined, so a spec is
// checked before any of its values is used.
func checkFinite(fields []namedFloat) error {
	for _, f := range fields {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("%s is %v, want a finite number", f.name, f.v)
		}
	}
	return nil
}

// checkFloats refuses a NaN or infinite number in any float field of the
// configuration, its memory and its pool.
func (cfg MachineConfig) checkFloats() error {
	var fields []namedFloat
	for i, v := range cfg.BandwidthsGBps {
		fields = append(fields, namedFloat{fmt.Sprintf("BandwidthsGBps[%d]", i), v})
	}
	fields = append(fields,
		namedFloat{"HopLatencyNs", cfg.HopLatencyNs},
		namedFloat{"PeakTFLOPS", cfg.PeakTFLOPS},
		namedFloat{"HBMGBps", cfg.HBMGBps},
		namedFloat{"Efficiency", cfg.Efficiency})
	if mc := cfg.Memory; mc != nil {
		fields = append(fields,
			namedFloat{"Memory.LocalLatencyNs", mc.LocalLatencyNs},
			namedFloat{"Memory.LocalGBps", mc.LocalGBps})
		if p := mc.Pool; p != nil {
			fields = append(fields,
				namedFloat{"Memory.Pool.RemoteGroupGBps", p.RemoteGroupGBps},
				namedFloat{"Memory.Pool.GPUSideGBps", p.GPUSideGBps},
				namedFloat{"Memory.Pool.InNodeGBps", p.InNodeGBps},
				namedFloat{"Memory.Pool.LatencyUs", p.LatencyUs})
		}
	}
	if err := checkFinite(fields); err != nil {
		return fmt.Errorf("astrasim: %w", err)
	}
	return nil
}

func buildMemory(cfg MachineConfig) (memory.System, error) {
	mc := cfg.Memory
	if mc == nil {
		mc = &MemoryConfig{}
	}
	localLat := mc.LocalLatencyNs
	if localLat == 0 {
		localLat = 1000
	}
	localBW := mc.LocalGBps
	if localBW == 0 {
		localBW = cfg.HBMGBps
		if localBW == 0 {
			localBW = 2039
		}
	}
	sys := memory.System{
		Local: memory.LocalModel{
			Latency:   units.FromNanos(localLat),
			Bandwidth: units.GBps(localBW),
		},
	}
	if mc.Pool == nil {
		return sys, nil
	}
	p := mc.Pool
	var design memory.PoolDesign
	switch p.Design {
	case "", "hierarchical":
		design = memory.Hierarchical
	case "multi-level-switch":
		design = memory.MultiLevelSwitch
	case "ring":
		design = memory.RingPool
	case "mesh":
		design = memory.MeshPool
	case "private":
		design = memory.PrivatePerGPU
	default:
		return sys, fmt.Errorf("astrasim: unknown pool design %q", p.Design)
	}
	sys.HasPool = true
	sys.Pool = memory.PoolConfig{
		Design:             design,
		NumNodes:           p.Nodes,
		GPUsPerNode:        p.GPUsPerNode,
		NumOutSwitches:     p.OutSwitches,
		NumRemoteGroups:    p.RemoteGroups,
		RemoteGroupBW:      units.GBps(p.RemoteGroupGBps),
		GPUSideOutFabricBW: units.GBps(p.GPUSideGBps),
		InNodeFabricBW:     units.GBps(p.InNodeGBps),
		ChunkSize:          units.ByteSize(p.ChunkBytes),
		Latency:            units.FromMicros(p.LatencyUs),
	}
	return sys, nil
}

// RegisteredBlocks lists the shape-notation names of every topology
// building block, sorted — the vocabulary MachineConfig.Topology accepts.
// The list is read from the topology block table, so CLI help and error
// messages never hard-code the block set.
func RegisteredBlocks() []string { return topology.RegisteredBlocks() }

// NumNPUs returns the machine size.
func (m *Machine) NumNPUs() int { return m.top.NumNPUs() }

// TopologySpec returns the canonical shape notation.
func (m *Machine) TopologySpec() string { return m.top.String() }

// AggregateBandwidthGBps returns the per-NPU total network bandwidth.
func (m *Machine) AggregateBandwidthGBps() float64 {
	return m.top.AggregateBandwidth().GBpsValue()
}

// Workload is anything that can generate an execution trace for a machine.
type Workload interface {
	trace(top *topology.Topology) (*et.Trace, error)
	// Name labels the workload in reports.
	Name() string
}

type workloadFunc struct {
	name string
	fn   func(*topology.Topology) (*et.Trace, error)
}

func (w workloadFunc) trace(top *topology.Topology) (*et.Trace, error) { return w.fn(top) }
func (w workloadFunc) Name() string                                    { return w.name }

// AllReduce is a single whole-machine All-Reduce of the given byte size.
func AllReduce(sizeBytes int64) Workload {
	return workloadFunc{
		name: fmt.Sprintf("AllReduce(%d)", sizeBytes),
		fn: func(top *topology.Topology) (*et.Trace, error) {
			return etgen.SingleCollective(top, et.CollAllReduce, units.ByteSize(sizeBytes)), nil
		},
	}
}

// collectiveOp resolves a collective name — the single source of truth
// for the op vocabulary shared by workload construction, the estimator
// and search proxy validation.
func collectiveOp(op string) (et.CollectiveType, collective.Op, error) {
	switch op {
	case "all_reduce":
		return et.CollAllReduce, collective.AllReduce, nil
	case "all_gather":
		return et.CollAllGather, collective.AllGather, nil
	case "reduce_scatter":
		return et.CollReduceScatter, collective.ReduceScatter, nil
	case "all_to_all":
		return et.CollAllToAll, collective.AllToAll, nil
	default:
		return 0, 0, fmt.Errorf("astrasim: unknown collective %q", op)
	}
}

// Collective is a single whole-machine collective: op is one of
// "all_reduce", "all_gather", "reduce_scatter", "all_to_all".
func Collective(op string, sizeBytes int64) Workload {
	return workloadFunc{
		name: fmt.Sprintf("%s(%d)", op, sizeBytes),
		fn: func(top *topology.Topology) (*et.Trace, error) {
			c, _, err := collectiveOp(op)
			if err != nil {
				return nil, err
			}
			return etgen.SingleCollective(top, c, units.ByteSize(sizeBytes)), nil
		},
	}
}

// GPT3 is one training iteration of the paper's GPT-3 configuration
// (175B parameters, tensor-parallel degree 16).
func GPT3() Workload {
	return workloadFunc{name: "GPT-3", fn: func(top *topology.Topology) (*et.Trace, error) {
		return etgen.Transformer(top, etgen.GPT3())
	}}
}

// Transformer1T is one training iteration of the paper's 1T-parameter
// transformer (tensor-parallel degree 128).
func Transformer1T() Workload {
	return workloadFunc{name: "Transformer-1T", fn: func(top *topology.Topology) (*et.Trace, error) {
		return etgen.Transformer(top, etgen.Transformer1T())
	}}
}

// Transformer is a custom hybrid-parallel transformer iteration.
func Transformer(params float64, layers, hidden, seqLen, microBatch, bytesPerElem, mp int) Workload {
	return workloadFunc{name: "Transformer", fn: func(top *topology.Topology) (*et.Trace, error) {
		return etgen.Transformer(top, etgen.TransformerConfig{
			Name: "Transformer", Params: params, Layers: layers, Hidden: hidden,
			SeqLen: seqLen, MicroBatch: microBatch, BytesPerElem: bytesPerElem, MP: mp,
		})
	}}
}

// DLRM is one training iteration of the paper's DLRM configuration.
func DLRM() Workload {
	return workloadFunc{name: "DLRM", fn: func(top *topology.Topology) (*et.Trace, error) {
		return etgen.DLRMTrace(top, etgen.DLRM())
	}}
}

// MoE1T is one iteration of the 1T-parameter Mixture-of-Experts model of
// the disaggregated-memory study; inSwitch selects fused in-switch
// collectives through the memory pool.
func MoE1T(inSwitch bool) Workload {
	return workloadFunc{name: "MoE-1T", fn: func(top *topology.Topology) (*et.Trace, error) {
		return etgen.MoETrace(top, etgen.MoE1T(inSwitch))
	}}
}

// FSDP is one fully-sharded data-parallel (ZeRO-3-style) iteration of a
// custom transformer: per-layer All-Gathers materialize weights, gradients
// leave as Reduce-Scatters, with layer-granular prefetch overlap.
func FSDP(params float64, layers, hidden, seqLen, microBatch, bytesPerElem int) Workload {
	return workloadFunc{name: "FSDP", fn: func(top *topology.Topology) (*et.Trace, error) {
		return etgen.FSDP(top, etgen.FSDPConfig{Model: etgen.TransformerConfig{
			Name: "FSDP", Params: params, Layers: layers, Hidden: hidden,
			SeqLen: seqLen, MicroBatch: microBatch, BytesPerElem: bytesPerElem, MP: 1,
		}})
	}}
}

// ThreeD is one 3D-parallel (pipeline x tensor x data) iteration of a
// custom transformer: mp*dp*stages must equal the machine size and layers
// must divide by stages.
func ThreeD(params float64, layers, hidden, seqLen, microBatch, bytesPerElem, mp, stages, microBatches int) Workload {
	return workloadFunc{name: "3D-Parallel", fn: func(top *topology.Topology) (*et.Trace, error) {
		return etgen.ThreeD(top, etgen.ThreeDConfig{
			Model: etgen.TransformerConfig{
				Name: "3D", Params: params, Layers: layers, Hidden: hidden,
				SeqLen: seqLen, MicroBatch: microBatch, BytesPerElem: bytesPerElem, MP: mp,
			},
			Stages:       stages,
			MicroBatches: microBatches,
		})
	}}
}

// Pipeline is a GPipe-style pipeline-parallel iteration.
func Pipeline(stages, microBatches int, flopsPerStage float64, activationBytes, gradBytes int64) Workload {
	return workloadFunc{name: "Pipeline", fn: func(top *topology.Topology) (*et.Trace, error) {
		return etgen.Pipeline(top, etgen.PipelineConfig{
			Name: "Pipeline", Stages: stages, MicroBatches: microBatches,
			FlopsPerStage:   flopsPerStage,
			ActivationBytes: units.ByteSize(activationBytes),
			GradBytes:       units.ByteSize(gradBytes),
		})
	}}
}

// Iterations runs a workload's trace n times back-to-back with
// synchronous iteration boundaries — a multi-iteration training run. Each
// NPU re-executes its one graph; nothing is copied per iteration.
func Iterations(w Workload, n int) Workload {
	return workloadFunc{
		name: fmt.Sprintf("%dx %s", n, w.Name()),
		fn: func(top *topology.Topology) (*et.Trace, error) {
			if n < 1 {
				return nil, fmt.Errorf("astrasim: Iterations needs n >= 1, got %d", n)
			}
			tr, err := w.trace(top)
			if err != nil {
				return nil, err
			}
			iters := max(tr.Iterations, 1)
			if iters > math.MaxInt/n {
				return nil, fmt.Errorf("astrasim: %d x %d iterations overflow int", iters, n)
			}
			tr.Iterations = iters * n
			return tr, nil
		},
	}
}

// TraceJSON runs a native ASTRA-sim execution trace read from r.
func TraceJSON(r io.Reader) Workload {
	return workloadFunc{name: "Trace", fn: func(*topology.Topology) (*et.Trace, error) {
		return et.Decode(r)
	}}
}

// PyTorchTraceJSON runs a PARAM-style PyTorch execution graph read from r,
// converting it to the native format first.
func PyTorchTraceJSON(r io.Reader) Workload {
	return workloadFunc{name: "PyTorchTrace", fn: func(*topology.Topology) (*et.Trace, error) {
		src, err := convert.DecodePyTorch(r)
		if err != nil {
			return nil, err
		}
		return convert.Convert(src)
	}}
}

// Report is the outcome of one simulated run.
type Report struct {
	Workload string
	// Makespan is the end-to-end simulated time.
	Makespan time.Duration
	// Mean per-NPU exposed-time breakdown (the five categories of the
	// paper's Fig. 11). They sum to Makespan.
	Compute          time.Duration
	ExposedComm      time.Duration
	ExposedRemoteMem time.Duration
	ExposedLocalMem  time.Duration
	Idle             time.Duration
	// TrafficPerDimMB is the mean per-NPU sent+received megabytes per
	// topology dimension.
	TrafficPerDimMB []float64
	// Collectives is the number of collectives that completed; Events the
	// number of simulation events executed, which counts only the
	// simulated ranks' events.
	Collectives int
	Events      uint64
	// SimulatedRanks is the number of ranks the run simulated. A symmetric
	// run simulates one rank per block of ranks that run alike and copies
	// its results to the rest of the block, so it reports fewer than the
	// machine's NPUs and fires fewer events; every other field is what
	// simulating every rank gives.
	SimulatedRanks int
}

func toDuration(t units.Time) time.Duration {
	return time.Duration(t / units.Nanosecond)
}

// Run generates the workload's trace and simulates it.
func (m *Machine) Run(w Workload) (*Report, error) {
	rep, _, err := m.run(w, false, nil)
	return rep, err
}

// RunWithTimeline simulates the workload and writes the per-NPU activity
// timeline to out in the Chrome Trace Event Format, viewable in
// chrome://tracing or Perfetto.
func (m *Machine) RunWithTimeline(w Workload, out io.Writer) (*Report, error) {
	rep, stats, err := m.run(w, true, nil)
	if err != nil {
		return nil, err
	}
	events := make([]chrometrace.Event, 0, len(stats.Timeline))
	for _, iv := range stats.Timeline {
		events = append(events, chrometrace.Event{
			Name:     string(iv.Activity),
			Category: "npu",
			TID:      iv.NPU,
			StartUs:  iv.Start.Micros(),
			DurUs:    (iv.End - iv.Start).Micros(),
		})
	}
	if err := chrometrace.Write(out, events, m.NumNPUs()); err != nil {
		return nil, err
	}
	return rep, nil
}

// run simulates the workload on a fresh simulator built from the machine's
// configuration, optionally recording the activity timeline or applying a
// perturbation schedule.
func (m *Machine) run(w Workload, timeline bool, sc *scenario.Scenario) (*Report, *core.RunStats, error) {
	trace, err := w.trace(m.top)
	if err != nil {
		return nil, nil, err
	}
	cfg := m.core
	cfg.RecordTimeline = timeline
	cfg.Scenario = sc
	sim, err := core.NewSimulator(cfg)
	if err != nil {
		return nil, nil, err
	}
	stats, err := sim.Run(trace)
	if err != nil {
		return nil, nil, err
	}
	return reportFromStats(w.Name(), stats), stats, nil
}

// reportFromStats converts engine run statistics to the public Report —
// shared by single runs, sweeps and the cluster layer's per-job rows.
func reportFromStats(workload string, stats *core.RunStats) *Report {
	mean := stats.MeanBreakdown()
	rep := &Report{
		Workload:         workload,
		Makespan:         toDuration(stats.Makespan),
		Compute:          toDuration(mean.Compute),
		ExposedComm:      toDuration(mean.ExposedComm),
		ExposedRemoteMem: toDuration(mean.ExposedRemoteMem),
		ExposedLocalMem:  toDuration(mean.ExposedLocalMem),
		Idle:             toDuration(mean.Idle),
		Collectives:      stats.CollectiveCount,
		Events:           stats.Events,
		SimulatedRanks:   stats.SimulatedRanks,
	}
	for _, b := range stats.TrafficPerDim {
		rep.TrafficPerDimMB = append(rep.TrafficPerDimMB, float64(b)/1e6)
	}
	return rep
}

// EstimateCollective returns the closed-form runtime prediction for a
// whole-machine collective without event simulation — the first-order
// design-space-exploration path. Like a simulated collective, it refuses a
// size that is not positive, and an estimate that overflows simulated
// time, where a run would report a timeline overflow.
func (m *Machine) EstimateCollective(op string, sizeBytes int64) (time.Duration, error) {
	_, o, err := collectiveOp(op)
	if err != nil {
		return 0, err
	}
	if sizeBytes <= 0 {
		return 0, fmt.Errorf("collective: non-positive size %d", sizeBytes)
	}
	t := collective.Estimate(m.top, o, units.ByteSize(sizeBytes),
		collective.FullMachine(m.top), m.core.Policy, m.core.Chunks)
	if t == units.MaxTime {
		return 0, fmt.Errorf("collective: estimate of %s over %d B overflows simulated time", op, sizeBytes)
	}
	return toDuration(t), nil
}
