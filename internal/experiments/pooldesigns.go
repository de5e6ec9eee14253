package experiments

import (
	"repro/internal/memory"
	"repro/internal/sweep"
	"repro/internal/units"
)

// Pool-design comparison — an extension beyond the paper's evaluation:
// Fig. 5 sketches four disaggregated-pool architectures (multi-level
// switch, ring, mesh, hierarchical) but Section V-B only evaluates the
// hierarchical design. This experiment runs the same bulk transfer
// through all four at equal per-resource bandwidths, quantifying the
// fabric-architecture effect the figure gestures at.

// PoolDesignRow is one design's transfer time at one payload size.
type PoolDesignRow struct {
	Design   memory.PoolDesign
	PerGPU   units.ByteSize
	Transfer units.Time
}

// PoolDesignResult is the comparison grid.
type PoolDesignResult struct {
	Rows []PoolDesignRow
}

// Row retrieves one measurement.
func (r *PoolDesignResult) Row(d memory.PoolDesign, perGPU units.ByteSize) (PoolDesignRow, bool) {
	for _, row := range r.Rows {
		if row.Design == d && row.PerGPU == perGPU {
			return row, true
		}
	}
	return PoolDesignRow{}, false
}

// PoolDesigns compares the four architectures (plus the ZeRO-Infinity
// private-path baseline) on the Fig. 6 machine: 256 GPUs, 256 remote
// memory groups, Table V's baseline bandwidths.
func PoolDesigns(o Options) (*PoolDesignResult, error) {
	base := memory.PoolConfig{
		NumNodes:           16,
		GPUsPerNode:        16,
		NumOutSwitches:     16,
		NumRemoteGroups:    256,
		ChunkSize:          256 * units.KiB,
		RemoteGroupBW:      units.GBps(100),
		GPUSideOutFabricBW: units.GBps(8192),
		InNodeFabricBW:     units.GBps(256),
	}
	designs := []memory.PoolDesign{
		memory.Hierarchical,
		memory.MultiLevelSwitch,
		memory.RingPool,
		memory.MeshPool,
		memory.PrivatePerGPU,
	}
	designNames := make([]string, len(designs))
	for i, d := range designs {
		designNames[i] = d.String()
	}
	sizes := []units.ByteSize{32 * units.MB, 325 * units.MB, 1000 * units.MB}
	spec := sweep.Spec[PoolDesignRow]{
		Name: "pooldesigns",
		Axes: []sweep.Axis{
			{Name: "design", Values: designNames},
			sizeAxis("per_gpu", sizes),
		},
		Cell: func(pt sweep.Point) (PoolDesignRow, error) {
			cfg := base
			cfg.Design = designs[pt.Index("design")]
			if err := cfg.Validate(); err != nil {
				return PoolDesignRow{}, err
			}
			s := sizes[pt.Index("per_gpu")]
			return PoolDesignRow{
				Design:   cfg.Design,
				PerGPU:   s,
				Transfer: cfg.TransferTime(s),
			}, nil
		},
	}
	res, err := sweep.Run(spec, o.Exec)
	if err != nil {
		return nil, err
	}
	return &PoolDesignResult{Rows: res.Values()}, nil
}
