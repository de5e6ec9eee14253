package search

import (
	"fmt"
	"io"
)

// WriteTable writes a human-readable run summary: the rung structure, the
// evaluation counts against the space size, and the winner.
func (r *Result) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "search %s: strategy=%s seed=%d space=%d feasible=%d\n",
		r.Problem, r.Strategy, r.Seed, r.Candidates, r.Feasible); err != nil {
		return err
	}
	for _, g := range r.History {
		promoted := 0
		for _, e := range g.Evals {
			if e.Promoted {
				promoted++
			}
		}
		line := fmt.Sprintf("  rung %d: %-8s %3d candidates", g.Index, g.Fidelity, len(g.Evals))
		if promoted > 0 {
			line += fmt.Sprintf(", %d promoted", promoted)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	frac := 0.0
	if r.Feasible > 0 {
		frac = 100 * float64(r.Simulations) / float64(r.Feasible)
	}
	if _, err := fmt.Fprintf(w, "  simulated %d/%d candidates (%.0f%%), %d estimates, %d pruned\n",
		r.Simulations, r.Feasible, frac, r.Estimates, len(r.PrunedCandidates)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "  best: %s (score %g)\n", r.Best.Label, r.Best.Score)
	return err
}
