package experiments

import (
	"repro/internal/collective"
	"repro/internal/sweep"
	"repro/internal/units"
)

// Fabrics — the dimension-model extension study. Six 512-NPU fabrics built
// from the registered building blocks, all provisioned with 500 GB/s of
// configured per-NPU bandwidth, run the 1 GB All-Reduce microbenchmark and
// one GPT-3 training iteration:
//
//	RingStack  R(16)_R(32)      TPUv2/v3-style stacked rings
//	Torus-2D   T2D(16,32)       one 2-D torus fabric (TPU pod shape)
//	MeshStack  M(16)_M(32)      NoC-style wrap-free meshes
//	SW-Flat    SW(16)_SW(32)    fully-provisioned switch hierarchy
//	SW-Taper2  SW(16)_SW(32,2)  leaf switches 2:1 oversubscribed
//	SW-Taper4  SW(16)_SW(32,4)  leaf switches 4:1 oversubscribed
//
// The grid quantifies what the pluggable-model layer is for: the torus and
// ring stack trade step latency for wraparound links, the mesh pays the
// dilation of its embedded ring, and the tapered switches expose how much
// of the flat fabric's provisioning a GPT-3 iteration actually needs.

// fabricSpecs declares the six comparison fabrics.
func fabricSpecs() []fabricSpec {
	return []fabricSpec{
		{"RingStack", "R(16)_R(32)", []float64{250, 250}},
		{"Torus-2D", "T2D(16,32)", []float64{500}},
		{"MeshStack", "M(16)_M(32)", []float64{250, 250}},
		{"SW-Flat", "SW(16)_SW(32)", []float64{250, 250}},
		{"SW-Taper2", "SW(16)_SW(32,2)", []float64{250, 250}},
		{"SW-Taper4", "SW(16)_SW(32,4)", []float64{250, 250}},
	}
}

// FabricSystems returns the six comparison fabrics.
func FabricSystems() []System { return buildFabrics(fabricSpecs()...) }

// FabricsResult holds the comparison cells.
type FabricsResult struct {
	Cells []Cell
}

// Cell looks up one measurement.
func (r *FabricsResult) Cell(system string, wl Workload) (Cell, error) {
	return findCell(r.Cells, system, wl, collective.Baseline)
}

// Fabrics runs the 6-fabric x 2-workload grid on the sweep engine.
func Fabrics(o Options) (*FabricsResult, error) {
	systems := FabricSystems()
	wls := []Workload{WLAllReduce, WLGPT3}
	wlAxis := sweep.Axis{Name: "workload", Values: []string{string(WLAllReduce), string(WLGPT3)}}
	spec := sweep.Spec[Cell]{
		Name: "fabrics",
		Axes: []sweep.Axis{systemAxis(systems), wlAxis},
		Cell: func(pt sweep.Point) (Cell, error) {
			return runCell(systems[pt.Index("system")], wls[pt.Index("workload")],
				collective.Baseline, o)
		},
	}
	res, err := sweep.Run(spec, o.Exec)
	if err != nil {
		return nil, err
	}
	return &FabricsResult{Cells: res.Values()}, nil
}

// FabricEstimates returns the closed-form 1 GB All-Reduce prediction per
// fabric — the first-order screening number a design-space exploration
// would sort on before simulating.
func FabricEstimates() map[string]units.Time {
	out := make(map[string]units.Time, 6)
	for _, s := range FabricSystems() {
		out[s.Name] = collective.Estimate(s.Top, collective.AllReduce, 1024*units.MB,
			collective.FullMachine(s.Top), collective.Baseline, 64)
	}
	return out
}
