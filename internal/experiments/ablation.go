package experiments

import (
	"repro/internal/collective"
	"repro/internal/sweep"
	"repro/internal/units"
)

// Ablations for the simulator's own design choices (DESIGN.md §6): how
// the chunk-pipelining depth and the scheduler interact on the paper's
// systems. These are not paper artifacts; they justify the default
// configuration (64 chunks) and quantify what each mechanism contributes.

// AblationRow is one (system, chunks, policy) measurement of a 1 GB
// All-Reduce.
type AblationRow struct {
	System   string
	Chunks   int
	Policy   collective.Policy
	Duration units.Time
	// SimEvents is the discrete-event cost of the configuration.
	SimEvents uint64
}

// AblationResult is the grid.
type AblationResult struct {
	Rows []AblationRow
}

// Row retrieves one measurement.
func (r *AblationResult) Row(system string, chunks int, policy collective.Policy) (AblationRow, bool) {
	for _, row := range r.Rows {
		if row.System == system && row.Chunks == chunks && row.Policy == policy {
			return row, true
		}
	}
	return AblationRow{}, false
}

// Ablation sweeps chunk counts {1, 4, 16, 64, 256} and both schedulers
// over the W-2D-500 and Conv-4D systems.
func Ablation(o Options) (*AblationResult, error) {
	const size = 1024 * units.MB
	all := TableII()
	var systems []System
	for _, name := range []string{"W-2D-500", "Conv-4D"} {
		sys, err := FindSystem(all, name)
		if err != nil {
			return nil, err
		}
		systems = append(systems, sys)
	}
	chunkGrid := []int{1, 4, 16, 64, 256}
	policies := []collective.Policy{collective.Baseline, collective.Themis}
	spec := sweep.Spec[AblationRow]{
		Name: "ablation",
		Axes: []sweep.Axis{systemAxis(systems), intAxis("chunks", chunkGrid), policyAxis(policies)},
		Cell: func(pt sweep.Point) (AblationRow, error) {
			sys := systems[pt.Index("system")]
			chunks := chunkGrid[pt.Index("chunks")]
			policy := policies[pt.Index("policy")]
			res, fired, err := runEngine(sys.Top, collective.AllReduce, size, chunks, policy)
			if err != nil {
				return AblationRow{}, err
			}
			return AblationRow{
				System:    sys.Name,
				Chunks:    chunks,
				Policy:    policy,
				Duration:  res.Duration(),
				SimEvents: fired,
			}, nil
		},
	}
	res, err := sweep.Run(spec, o.Exec)
	if err != nil {
		return nil, err
	}
	return &AblationResult{Rows: res.Values()}, nil
}
