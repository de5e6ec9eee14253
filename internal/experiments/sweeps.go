package experiments

import (
	"repro/internal/collective"
	"repro/internal/network"
	"repro/internal/sweep"
	"repro/internal/timeline"
	"repro/internal/topology"
	"repro/internal/units"
)

// This file holds the shared plumbing that routes every experiment through
// the sweep engine: axis builders and the bare collective-engine runner
// that Fig. 4, Table IV, the ablation and the speedup study share.

// runEngine executes one collective on a fresh timeline + network backend,
// returning the result and the number of discrete events fired.
func runEngine(top *topology.Topology, op collective.Op, size units.ByteSize, chunks int, policy collective.Policy) (collective.Result, uint64, error) {
	eng := timeline.New()
	net := network.NewBackend(eng, top)
	ce := collective.NewEngine(net, policy, chunks)
	var res collective.Result
	if err := ce.Start(op, size, collective.FullMachine(top), net.Machine(), func(r collective.Result) { res = r }); err != nil {
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
