package experiments

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/search"
	"repro/internal/sweep"
	"repro/internal/units"
)

// Search — the design-space-search extension study. The fabrics grid of
// PR 2 crossed with four bandwidth provisioning scales gives a 24-point
// design space; finding the best GPT-3 fabric exhaustively means 24 full
// event-engine simulations. The multi-fidelity halving search screens all
// 24 points with the closed-form 1 GB All-Reduce estimate (microseconds
// of work) and promotes only the top quartile to full simulation — it
// must recover the exhaustive optimum while simulating 25% of the cells.

// fabricSearchScales are the bandwidth provisioning multipliers applied
// to every fabric of the comparison.
func fabricSearchScales() []float64 { return []float64{0.5, 1, 2, 4} }

// FabricSearchSystems returns the 24-system search space: each comparison
// fabric at each provisioning scale, named e.g. "SW-Flat x2".
func FabricSearchSystems() []System {
	var specs []fabricSpec
	for _, s := range fabricSpecs() {
		for _, scale := range fabricSearchScales() {
			gbps := make([]float64, len(s.gbps))
			for i, v := range s.gbps {
				gbps[i] = v * scale
			}
			name := fmt.Sprintf("%s x%s", s.name, sweep.FormatFloat(scale))
			specs = append(specs, fabricSpec{name, s.notation, gbps})
		}
	}
	return buildFabrics(specs...)
}

// fabricSearchProblem frames the space as a search problem: the cheap
// fidelity is the closed-form 1 GB All-Reduce screening estimate, the
// full fidelity one simulated GPT-3 training iteration (objective:
// makespan). Scores are microseconds at both fidelities.
func fabricSearchProblem(systems []System, o Options) search.Problem {
	return search.Problem{
		Name:       "fabric-search",
		Candidates: len(systems),
		Label:      func(i int) string { return systems[i].Name },
		Estimate: func(i int) (float64, error) {
			top := systems[i].Top
			return collective.Estimate(top, collective.AllReduce, 1024*units.MB,
				collective.FullMachine(top), collective.Baseline, 64).Micros(), nil
		},
		Simulate: func(i int) (float64, error) {
			cell, err := runCell(systems[i], WLGPT3, collective.Baseline, o)
			if err != nil {
				return 0, err
			}
			return cell.Total.Micros(), nil
		},
	}
}

// FabricSearchResult pairs the budgeted search with its exhaustive
// baseline over the same space.
type FabricSearchResult struct {
	// Space is the candidate count (fabrics x provisioning scales).
	Space int `json:"space"`
	// Halving is the multi-fidelity successive-halving run.
	Halving *search.Result `json:"halving"`
	// Exhaustive simulates the whole space — the ground-truth optimum.
	Exhaustive *search.Result `json:"exhaustive"`
	// Recovered reports whether the budgeted search found the exhaustive
	// winner.
	Recovered bool `json:"recovered"`
	// SimFraction is the share of the space the halving run simulated at
	// full fidelity.
	SimFraction float64 `json:"sim_fraction"`
}

// FabricSearch runs the halving search and the exhaustive baseline over
// the 24-point fabric space. Results are deterministic for any worker
// count. The exhaustive pass runs first, and the halving pass reads the
// scores of the candidates it promotes from it by candidate index, as
// Fig. 11 reads its baseline bar from its grid, instead of simulating them
// again.
func FabricSearch(o Options) (*FabricSearchResult, error) {
	systems := FabricSearchSystems()
	p := fabricSearchProblem(systems, o)
	exhaustive, err := search.Optimize(p, search.Options{Strategy: "exhaustive", Seed: 1, Exec: o.Exec})
	if err != nil {
		return nil, err
	}
	scores := make([]float64, len(systems))
	for _, e := range exhaustive.History[0].Evals {
		scores[e.Candidate] = e.Score
	}
	p.Simulate = func(i int) (float64, error) { return scores[i], nil }
	halving, err := search.Optimize(p, search.Options{Strategy: "halving", Seed: 1, Exec: o.Exec})
	if err != nil {
		return nil, err
	}
	return &FabricSearchResult{
		Space:       len(systems),
		Halving:     halving,
		Exhaustive:  exhaustive,
		Recovered:   halving.Best.Candidate == exhaustive.Best.Candidate,
		SimFraction: float64(halving.Simulations) / float64(len(systems)),
	}, nil
}
