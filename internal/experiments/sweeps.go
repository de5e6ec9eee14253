package experiments

import (
	"fmt"
	"strings"

	"repro/internal/collective"
	"repro/internal/memory"
	"repro/internal/network"
	"repro/internal/sweep"
	"repro/internal/timeline"
	"repro/internal/topology"
	"repro/internal/units"
)

// This file holds the shared plumbing that routes every experiment through
// the sweep engine: canonical configuration fingerprints (so overlapping
// grids simulate shared cells once), axis builders, and the bare
// collective-engine runner four experiments previously hand-rolled.

// topoFingerprint canonically describes a topology including per-dimension
// bandwidth and latency — everything that affects simulated results.
func topoFingerprint(t *topology.Topology) string {
	var b strings.Builder
	for i, d := range t.Dims {
		if i > 0 {
			b.WriteByte('_')
		}
		// Format carries the full model identity (torus axes, switch
		// oversubscription), not just the block's short name and size.
		fmt.Fprintf(&b, "%s@%g/%d", d.Format(), d.Bandwidth.GBpsValue(), int64(d.Latency))
	}
	return b.String()
}

// engineFingerprint identifies a bare collective-engine run: the op, size,
// chunking, scheduler and full topology. Any two cells with equal strings
// simulate identically, so TableIV, the ablation grid and Fig. 4 share a
// cache space without risk of false sharing.
func engineFingerprint(top *topology.Topology, op collective.Op, size units.ByteSize, chunks int, policy collective.Policy) string {
	return fmt.Sprintf("engine|op=%s|size=%d|chunks=%d|policy=%s|topo=%s",
		op, size, chunks, policy, topoFingerprint(top))
}

// poolFingerprint canonically describes a disaggregated-pool configuration.
func poolFingerprint(p memory.PoolConfig) string {
	return fmt.Sprintf("pool|design=%s|nodes=%d|gpus=%d|outsw=%d|groups=%d|chunk=%d|groupbw=%g|gpusidebw=%g|innodebw=%g|lat=%d",
		p.Design, p.NumNodes, p.GPUsPerNode, p.NumOutSwitches, p.NumRemoteGroups,
		p.ChunkSize, p.RemoteGroupBW.GBpsValue(), p.GPUSideOutFabricBW.GBpsValue(),
		p.InNodeFabricBW.GBpsValue(), int64(p.Latency))
}

// collMemo is the package-shared collective memoization table: identical
// whole-machine collectives recurring across experiments replay their
// recorded sub-result instead of re-simulating the chunk wave. Simulated
// output is byte-identical with or without it, and the table is safe for
// the sweep engine's concurrent workers.
var collMemo = collective.NewMemo()

// runEngine executes one collective on a fresh timeline + network backend,
// returning the result and the number of discrete events fired.
func runEngine(top *topology.Topology, op collective.Op, size units.ByteSize, chunks int, policy collective.Policy) (collective.Result, uint64, error) {
	eng := timeline.New()
	net := network.NewBackend(eng, top)
	ce := collective.NewEngine(net, collective.WithChunks(chunks), collective.WithPolicy(policy), collective.WithMemo(collMemo))
	var res collective.Result
	if err := ce.Start(op, size, collective.FullMachine(top), nil, func(r collective.Result) { res = r }); err != nil {
		return res, 0, err
	}
	if _, err := eng.Run(); err != nil {
		return res, 0, err
	}
	return res, eng.Fired(), nil
}

// systemAxis builds an axis from named systems.
func systemAxis(systems []System) sweep.Axis {
	names := make([]string, len(systems))
	for i, s := range systems {
		names[i] = s.Name
	}
	return sweep.Axis{Name: "system", Values: names}
}

// workloadAxis builds the Table III workload axis.
func workloadAxis() sweep.Axis {
	wls := Workloads()
	names := make([]string, len(wls))
	for i, wl := range wls {
		names[i] = string(wl)
	}
	return sweep.Axis{Name: "workload", Values: names}
}

// policyAxis builds a scheduler axis.
func policyAxis(policies []collective.Policy) sweep.Axis {
	names := make([]string, len(policies))
	for i, p := range policies {
		names[i] = p.String()
	}
	return sweep.Axis{Name: "policy", Values: names}
}

// floatAxis renders a numeric grid dimension.
func floatAxis(name string, vals []float64) sweep.Axis {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = sweep.FormatFloat(v)
	}
	return sweep.Axis{Name: name, Values: out}
}

// intAxis renders an integer grid dimension.
func intAxis(name string, vals []int) sweep.Axis {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = sweep.FormatInt(v)
	}
	return sweep.Axis{Name: name, Values: out}
}

// sizeAxis renders a byte-size grid dimension.
func sizeAxis(name string, vals []units.ByteSize) sweep.Axis {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = v.String()
	}
	return sweep.Axis{Name: name, Values: out}
}
