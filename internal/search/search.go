// Package search is the multi-fidelity design-space search engine: a
// budgeted optimizer over an enumerable candidate space whose evaluations
// run at two fidelities — a cheap closed-form estimate and a full
// event-engine simulation. Strategies decide which candidates to evaluate
// at which fidelity; every batch executes on the sweep engine's worker
// pool, so results are byte-identical for any worker count, and duplicate
// candidates within a batch, by fingerprint, simulate once.
//
// Three strategies are built in, named (case-insensitively) by
// Options.Strategy:
//
//	exhaustive  full-fidelity simulation of every feasible candidate —
//	            the delegate-to-sweep baseline every other strategy is
//	            measured against (aliases: sweep, grid)
//	random      seeded random sample, estimate-screened, with only the
//	            top-ranked slice promoted to simulation
//	halving     multi-fidelity successive halving: estimate the whole
//	            space, promote the top 1/eta survivors to full simulation
//	            (the default; aliases: sha, successive-halving)
package search

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/sweep"
)

// Fidelity selects an evaluation path of a Problem.
type Fidelity int

// The two fidelities of a multi-fidelity search.
const (
	// FidelityEstimate is the cheap closed-form screening score.
	FidelityEstimate Fidelity = iota
	// FidelitySimulate is the full event-engine objective.
	FidelitySimulate
)

// String names the fidelity.
func (f Fidelity) String() string {
	switch f {
	case FidelityEstimate:
		return "estimate"
	case FidelitySimulate:
		return "simulate"
	default:
		return fmt.Sprintf("Fidelity(%d)", int(f))
	}
}

// Problem is an index-addressed optimization problem: Candidates design
// points, each scorable at two fidelities. Lower scores are better; both
// fidelities must use comparable units (the estimate ranks candidates for
// promotion, the simulation decides the winner).
type Problem struct {
	// Name labels the search in errors and exports.
	Name string
	// Candidates is the design-space size; candidate ids are 0..Candidates-1.
	Candidates int
	// Label renders candidate i for results (unique labels recommended).
	Label func(i int) string
	// Feasible, when non-nil, reports why candidate i is invalid (nil =
	// feasible). Infeasible candidates are pruned before any evaluation.
	Feasible func(i int) error
	// Estimate is the cheap screening score of candidate i. It may be nil
	// only for strategies that never estimate (exhaustive).
	Estimate func(i int) (float64, error)
	// Simulate is the full-fidelity objective of candidate i. It must be
	// safe for concurrent calls.
	Simulate func(i int) (float64, error)
	// Fingerprint, when non-nil, canonically describes candidate i's
	// configuration at a fidelity. Equal fingerprints evaluate once and
	// share results through Exec.Cache. Empty string opts out.
	Fingerprint func(i int, f Fidelity) string
}

// Options controls a search run.
type Options struct {
	// Strategy names a built-in strategy or alias (default "halving").
	Strategy string
	// Seed drives every stochastic choice; a fixed seed makes the search
	// fully deterministic for any worker count.
	Seed int64
	// MaxSimulations bounds full-fidelity evaluations; <= 0 means the
	// strategy default, ceil(feasible/Eta). Exhaustive ignores it.
	MaxSimulations int
	// Population is the random strategy's sample size; <= 0 means
	// Eta * MaxSimulations (capped at the feasible count). An explicit
	// Population without MaxSimulations derives the budget from the
	// sample: ceil(Population/Eta).
	Population int
	// Eta is the halving ratio (default 4, minimum 2).
	Eta int
	// Exec controls batch execution: worker count, cross-batch result
	// cache, and progress callbacks (called per batch).
	Exec sweep.Exec
}

// Eval is one scored candidate.
type Eval struct {
	// Candidate is the problem-level candidate id.
	Candidate int `json:"candidate"`
	// Label is the candidate's display label.
	Label string `json:"label"`
	// Score is the fidelity's value (lower is better).
	Score float64 `json:"score"`
	// Promoted marks candidates the strategy advanced to the next rung.
	Promoted bool `json:"promoted,omitempty"`
}

// Generation is one rung of the search: a batch of same-fidelity
// evaluations in deterministic (strategy-chosen) order.
type Generation struct {
	Index    int    `json:"index"`
	Fidelity string `json:"fidelity"`
	Evals    []Eval `json:"evals"`
}

// Pruned records one infeasible candidate and why it was excluded.
type Pruned struct {
	Candidate int    `json:"candidate"`
	Label     string `json:"label"`
	Reason    string `json:"reason"`
}

// Result is a completed search. It is deterministic for a given problem,
// options and seed — identical for any Exec.Workers value — except Wall,
// which is excluded from the JSON form for that reason.
type Result struct {
	Problem    string `json:"problem"`
	Strategy   string `json:"strategy"`
	Seed       int64  `json:"seed"`
	Candidates int    `json:"candidates"`
	Feasible   int    `json:"feasible"`
	// Estimates and Simulations count candidate evaluations the strategy
	// requested at each fidelity (cache hits included).
	Estimates   int `json:"estimates"`
	Simulations int `json:"simulations"`
	// Best is the winning candidate: the lowest full-fidelity score, ties
	// broken by candidate id.
	Best Eval `json:"best"`
	// History holds every rung in execution order.
	History []Generation `json:"history"`
	// PrunedCandidates lists the infeasible candidates.
	PrunedCandidates []Pruned `json:"pruned,omitempty"`
	// Wall is the search's wall-clock duration (not part of the JSON form).
	Wall time.Duration `json:"-"`
}

// evaluator runs same-fidelity candidate batches for strategies on the
// sweep engine: worker pool, fingerprint deduplication, shared cache, and
// deterministic batch-order results.
type evaluator struct {
	p           Problem
	exec        sweep.Exec
	estimates   int
	simulations int
	// done counts evaluations completed in earlier batches, so progress
	// callbacks report one monotonic search-wide counter rather than
	// restarting at every rung.
	done int
}

// batch evaluates the candidates at one fidelity, returning evals in the
// ids' order. Duplicate fingerprints within the batch evaluate once.
func (e *evaluator) batch(ids []int, f Fidelity) ([]Eval, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	fn := e.p.Simulate
	if f == FidelityEstimate {
		fn = e.p.Estimate
	}
	if fn == nil {
		return nil, fmt.Errorf("search %s: problem has no %s function", e.p.Name, f)
	}
	labels := make([]string, len(ids))
	for i, id := range ids {
		labels[i] = e.p.Label(id)
	}
	spec := sweep.Spec[float64]{
		Name: e.p.Name + "/" + f.String(),
		Axes: []sweep.Axis{{Name: "candidate", Values: labels}},
		Cell: func(pt sweep.Point) (float64, error) {
			return fn(ids[pt.Index("candidate")])
		},
	}
	if e.p.Fingerprint != nil {
		spec.Fingerprint = func(pt sweep.Point) string {
			return e.p.Fingerprint(ids[pt.Index("candidate")], f)
		}
	}
	exec := e.exec
	if progress := exec.Progress; progress != nil {
		// Offset this batch's (done, total) by the evaluations of earlier
		// rungs: the caller sees one counter that never resets, whose
		// total grows as the strategy commits to more evaluations.
		base := e.done
		exec.Progress = func(done, total int) { progress(base+done, base+total) }
	}
	res, err := sweep.Run(spec, exec)
	if err != nil {
		return nil, err
	}
	e.done += len(ids)
	evals := make([]Eval, len(ids))
	for i, row := range res.Rows {
		evals[i] = Eval{Candidate: ids[i], Label: labels[i], Score: row.Value}
	}
	if f == FidelityEstimate {
		e.estimates += len(ids)
	} else {
		e.simulations += len(ids)
	}
	return evals, nil
}

// rank returns the evals sorted by ascending score, ties broken by
// candidate id — the promotion order of every strategy.
func rank(evals []Eval) []Eval {
	out := make([]Eval, len(evals))
	copy(out, evals)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score < out[j].Score
		}
		return out[i].Candidate < out[j].Candidate
	})
	return out
}

// strategies maps every accepted strategy name to its canonical name.
var strategies = map[string]string{
	"exhaustive":         "exhaustive",
	"sweep":              "exhaustive",
	"grid":               "exhaustive",
	"random":             "random",
	"halving":            "halving",
	"sha":                "halving",
	"successive-halving": "halving",
}

// CanonicalStrategy resolves a strategy name, matched case-insensitively,
// to its canonical name; empty means "halving".
func CanonicalStrategy(name string) (string, error) {
	if name == "" {
		name = "halving"
	}
	s, ok := strategies[strings.ToLower(name)]
	if !ok {
		return "", fmt.Errorf("search: unknown strategy %q (registered: %s)",
			name, strings.Join(Strategies(), ", "))
	}
	return s, nil
}

// Strategies lists the accepted strategy names and aliases, sorted.
func Strategies() []string {
	names := make([]string, 0, len(strategies))
	for n := range strategies {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ceilDiv returns ceil(a/b) for positive a, b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// simulationBudget resolves the full-fidelity budget: the explicit
// MaxSimulations, else ceil(n/eta), clamped to [1, n].
func simulationBudget(o Options, n, eta int) int {
	b := o.MaxSimulations
	if b <= 0 {
		b = ceilDiv(n, eta)
	}
	if b > n {
		b = n
	}
	if b < 1 {
		b = 1
	}
	return b
}

// Optimize runs the search described by the options over the problem.
func Optimize(p Problem, o Options) (*Result, error) {
	start := time.Now()
	if p.Candidates <= 0 {
		return nil, fmt.Errorf("search %s: empty candidate space", p.Name)
	}
	if p.Simulate == nil {
		return nil, fmt.Errorf("search %s: nil Simulate", p.Name)
	}
	if p.Label == nil {
		return nil, fmt.Errorf("search %s: nil Label", p.Name)
	}
	strat, err := CanonicalStrategy(o.Strategy)
	if err != nil {
		return nil, err
	}
	if o.Eta == 0 {
		o.Eta = 4
	}
	if o.Eta < 2 {
		return nil, fmt.Errorf("search %s: eta must be >= 2, got %d", p.Name, o.Eta)
	}

	// Prune infeasible candidates before any evaluation; feasibility is
	// checked serially so pruning order (and the result) is deterministic.
	feasible := make([]int, 0, p.Candidates)
	var pruned []Pruned
	for i := 0; i < p.Candidates; i++ {
		if p.Feasible != nil {
			if err := p.Feasible(i); err != nil {
				pruned = append(pruned, Pruned{Candidate: i, Label: p.Label(i), Reason: err.Error()})
				continue
			}
		}
		feasible = append(feasible, i)
	}
	if len(feasible) == 0 {
		return nil, fmt.Errorf("search %s: no feasible candidates (%d pruned)", p.Name, len(pruned))
	}

	ev := &evaluator{p: p, exec: o.Exec}
	var gens []Generation
	switch strat {
	case "exhaustive":
		// Simulate every feasible candidate: the delegate-to-sweep baseline.
		var sims []Eval
		sims, err = ev.batch(feasible, FidelitySimulate)
		gens = []Generation{{Fidelity: FidelitySimulate.String(), Evals: sims}}
	case "random":
		sample, budget := randomSample(feasible, o)
		gens, err = screenThenSimulate(ev, sample, budget)
	default: // halving
		gens, err = screenThenSimulate(ev, feasible, simulationBudget(o, len(feasible), o.Eta))
	}
	if err != nil {
		return nil, err
	}
	for i := range gens {
		gens[i].Index = i
	}

	// The winner is the best full-fidelity evaluation anywhere in the
	// history (ties by candidate id, matching rank).
	var best Eval
	found := false
	for _, g := range gens {
		if g.Fidelity != FidelitySimulate.String() {
			continue
		}
		for _, e := range g.Evals {
			if !found || e.Score < best.Score ||
				(e.Score == best.Score && e.Candidate < best.Candidate) {
				best, found = e, true
			}
		}
	}
	if !found {
		return nil, fmt.Errorf("search %s: strategy %s ran no full-fidelity evaluations", p.Name, strat)
	}
	best.Promoted = false

	return &Result{
		Problem:          p.Name,
		Strategy:         strat,
		Seed:             o.Seed,
		Candidates:       p.Candidates,
		Feasible:         len(feasible),
		Estimates:        ev.estimates,
		Simulations:      ev.simulations,
		Best:             best,
		History:          gens,
		PrunedCandidates: pruned,
		Wall:             time.Since(start),
	}, nil
}

// ---------------------------------------------------------- strategies ----

// randomSample draws the random strategy's seeded sample of the feasible
// candidates, in ascending order, and its simulation budget.
func randomSample(feasible []int, o Options) (sample []int, budget int) {
	n := len(feasible)
	var pop int
	if o.Population > 0 {
		// The sample size is the contract; the budget follows from it
		// (never from the full space, which the sample may be a tiny
		// fraction of).
		pop = o.Population
		if pop > n {
			pop = n
		}
		budget = o.MaxSimulations
		if budget <= 0 {
			budget = ceilDiv(pop, o.Eta)
		}
		if budget > pop {
			budget = pop
		}
	} else {
		budget = simulationBudget(o, n, o.Eta)
		pop = o.Eta * budget
		if pop > n {
			pop = n
		}
	}
	// Sample without replacement, then restore ascending order so the
	// sample set — not the draw order — defines the batch.
	rng := rand.New(rand.NewSource(o.Seed))
	perm := rng.Perm(n)
	sample = make([]int, pop)
	for i := 0; i < pop; i++ {
		sample[i] = feasible[perm[i]]
	}
	sort.Ints(sample)
	return sample, budget
}

// screenThenSimulate is the promote step of halving and random: estimate
// the pool, mark the top `budget` candidates promoted, and simulate them.
// Halving screens the whole feasible space with a budget of 1/eta of it.
func screenThenSimulate(ev *evaluator, pool []int, budget int) ([]Generation, error) {
	screen, err := ev.batch(pool, FidelityEstimate)
	if err != nil {
		return nil, err
	}
	ranked := rank(screen)
	if budget > len(ranked) {
		budget = len(ranked)
	}
	survivors := make([]int, budget)
	promoted := make(map[int]bool, budget)
	for i := 0; i < budget; i++ {
		survivors[i] = ranked[i].Candidate
		promoted[ranked[i].Candidate] = true
	}
	sort.Ints(survivors)
	for i := range screen {
		screen[i].Promoted = promoted[screen[i].Candidate]
	}
	sims, err := ev.batch(survivors, FidelitySimulate)
	if err != nil {
		return nil, err
	}
	return []Generation{
		{Fidelity: FidelityEstimate.String(), Evals: screen},
		{Fidelity: FidelitySimulate.String(), Evals: sims},
	}, nil
}
