package experiments

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/sweep"
	"repro/internal/units"
)

// Table IV — the wafer-scaling study of Section V-A-2: a 1 GB All-Gather
// on the Base-512 system (2_8_8_4 with a 1000 GB/s on-chip Dim 1), scaled
// either conventionally (growing the Dim 4 NIC fabric: 2_8_8_{8,16,32}) or
// wafer-style (growing the on-chip Dim 1: {4,8,16}_8_8_4). The paper's
// findings: scale-out leaves collective time identical; wafer scale-up
// cuts it by up to 2.51x before the on-wafer dimension saturates and the
// time bounces back up (16_8_8_4).

// TableIVRow is one row of the table.
type TableIVRow struct {
	System string
	NPUs   int
	// TrafficPerDim is the per-NPU sent+received megabytes on each of the
	// four dimensions (the table's "message size" columns).
	TrafficPerDim [4]float64
	// CollectiveTime is the All-Gather completion time.
	CollectiveTime units.Time
}

// TableIVResult is the whole table.
type TableIVResult struct {
	Rows []TableIVRow
	// Size is the collective size used (1 GB).
	Size units.ByteSize
}

// Row returns the named row.
func (t *TableIVResult) Row(system string) (TableIVRow, error) {
	for _, r := range t.Rows {
		if r.System == system {
			return r, nil
		}
	}
	return TableIVRow{}, fmt.Errorf("tableiv: unknown system %q", system)
}

// TableIV regenerates the table.
func TableIV(o Options) (*TableIVResult, error) {
	const size = units.ByteSize(1024 * units.MB) // the paper's 1 GB
	systems := ScalingSystems()
	spec := sweep.Spec[TableIVRow]{
		Name: "tableiv",
		Axes: []sweep.Axis{systemAxis(systems)},
		Cell: func(pt sweep.Point) (TableIVRow, error) {
			sys := systems[pt.Index("system")]
			res, _, err := runEngine(sys.Top, collective.AllGather, size, 64, collective.Baseline)
			if err != nil {
				return TableIVRow{}, err
			}
			row := TableIVRow{
				System:         sys.Name,
				NPUs:           sys.Top.NumNPUs(),
				CollectiveTime: res.Duration(),
			}
			for d := 0; d < 4; d++ {
				row.TrafficPerDim[d] = float64(res.TrafficPerDim[d]) / 1e6 // MB
			}
			return row, nil
		},
		Fingerprint: func(pt sweep.Point) string {
			// The row embeds the system name, so the name is part of the key.
			sys := systems[pt.Index("system")]
			return "tableiv|sys=" + sys.Name + "|" + engineFingerprint(sys.Top, collective.AllGather, size, 64, collective.Baseline)
		},
	}
	res, err := sweep.Run(spec, o.Exec)
	if err != nil {
		return nil, err
	}
	return &TableIVResult{Size: size, Rows: res.Values()}, nil
}
