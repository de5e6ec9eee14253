package search

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/sweep"
)

// testProblem is a synthetic 16-candidate space whose true objective has
// its optimum at id 11 and whose estimator is rank-correlated but not
// exact (it preserves the optimum's top-quartile position, like a
// closed-form collective estimate screening full simulations).
func testProblem(sims, ests *atomic.Int64) Problem {
	truth := func(i int) float64 {
		d := float64(i - 11)
		return 100 + d*d
	}
	return Problem{
		Name:       "synthetic",
		Candidates: 16,
		Label:      func(i int) string { return fmt.Sprintf("cand-%02d", i) },
		Estimate: func(i int) (float64, error) {
			if ests != nil {
				ests.Add(1)
			}
			// Noise of magnitude <= 2 cannot reorder gaps of >= 3, so the
			// optimum stays in the estimator's top quartile.
			return truth(i) + float64(i%3), nil
		},
		Simulate: func(i int) (float64, error) {
			if sims != nil {
				sims.Add(1)
			}
			return truth(i), nil
		},
	}
}

func TestExhaustiveFindsOptimum(t *testing.T) {
	var sims atomic.Int64
	res, err := Optimize(testProblem(&sims, nil), Options{Strategy: "exhaustive"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Candidate != 11 || res.Best.Label != "cand-11" {
		t.Errorf("best = %+v, want candidate 11", res.Best)
	}
	if res.Simulations != 16 || sims.Load() != 16 {
		t.Errorf("simulations = %d (ran %d), want 16", res.Simulations, sims.Load())
	}
	if res.Estimates != 0 {
		t.Errorf("exhaustive ran %d estimates", res.Estimates)
	}
	if len(res.History) != 1 || res.History[0].Fidelity != "simulate" {
		t.Errorf("history = %+v, want one simulate rung", res.History)
	}
}

func TestHalvingPromotesTopFraction(t *testing.T) {
	var sims, ests atomic.Int64
	res, err := Optimize(testProblem(&sims, &ests), Options{Strategy: "halving"})
	if err != nil {
		t.Fatal(err)
	}
	// Default eta 4: 16 estimates screen the space, 4 simulations decide.
	if res.Estimates != 16 || ests.Load() != 16 {
		t.Errorf("estimates = %d (ran %d), want 16", res.Estimates, ests.Load())
	}
	if res.Simulations != 4 || sims.Load() != 4 {
		t.Errorf("simulations = %d (ran %d), want 4", res.Simulations, sims.Load())
	}
	if res.Best.Candidate != 11 {
		t.Errorf("halving missed the optimum: best = %+v", res.Best)
	}
	if len(res.History) != 2 {
		t.Fatalf("history has %d rungs, want 2", len(res.History))
	}
	promoted := 0
	for _, e := range res.History[0].Evals {
		if e.Promoted {
			promoted++
		}
	}
	if promoted != 4 {
		t.Errorf("%d candidates promoted, want 4", promoted)
	}
	// The simulate rung holds exactly the promoted candidates, ascending.
	simGen := res.History[1]
	last := -1
	for _, e := range simGen.Evals {
		if e.Candidate <= last {
			t.Errorf("simulate rung not in ascending candidate order: %+v", simGen.Evals)
		}
		last = e.Candidate
	}
}

func TestSimulationBudgetOverride(t *testing.T) {
	for _, budget := range []int{1, 2, 7, 100} {
		res, err := Optimize(testProblem(nil, nil), Options{Strategy: "halving", MaxSimulations: budget})
		if err != nil {
			t.Fatal(err)
		}
		want := budget
		if want > 16 {
			want = 16
		}
		if res.Simulations != want {
			t.Errorf("budget %d: simulations = %d, want %d", budget, res.Simulations, want)
		}
	}
}

func TestRandomStrategy(t *testing.T) {
	var sims, ests atomic.Int64
	res, err := Optimize(testProblem(&sims, &ests), Options{Strategy: "random", Seed: 7, MaxSimulations: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Population defaults to eta*budget = 8 sampled candidates.
	if res.Estimates != 8 || ests.Load() != 8 {
		t.Errorf("estimates = %d (ran %d), want 8", res.Estimates, ests.Load())
	}
	if res.Simulations != 2 {
		t.Errorf("simulations = %d, want 2", res.Simulations)
	}
	// Same seed reproduces the run byte-for-byte; the sample is seeded.
	again, err := Optimize(testProblem(nil, nil), Options{Strategy: "random", Seed: 7, MaxSimulations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := mustMarshal(t, res), mustMarshal(t, again); !bytes.Equal(a, b) {
		t.Error("same seed produced different results")
	}
	// An explicit population is honored and clamped to the space.
	res, err = Optimize(testProblem(nil, nil), Options{Strategy: "random", Seed: 1, Population: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimates != 16 {
		t.Errorf("population 100 estimated %d, want clamp to 16", res.Estimates)
	}
	// An explicit population without a budget derives the budget from the
	// sample, not the full space: 8 sampled, ceil(8/4)=2 simulated.
	res, err = Optimize(testProblem(nil, nil), Options{Strategy: "random", Seed: 1, Population: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimates != 8 || res.Simulations != 2 {
		t.Errorf("population 8: %d estimates / %d simulations, want 8 / 2",
			res.Estimates, res.Simulations)
	}
}

// TestDeterministicAcrossWorkers is the engine's core guarantee: a fixed
// seed and budget produce byte-identical results whatever the worker
// count, mirroring the sweep engine's serial-parity property.
func TestDeterministicAcrossWorkers(t *testing.T) {
	for _, strategy := range []string{"exhaustive", "random", "halving"} {
		var want []byte
		for i, workers := range []int{1, 2, 3, 8} {
			res, err := Optimize(testProblem(nil, nil), Options{
				Strategy: strategy,
				Seed:     42,
				Exec:     sweep.Exec{Workers: workers},
			})
			if err != nil {
				t.Fatal(err)
			}
			got := mustMarshal(t, res)
			if i == 0 {
				want = got
				continue
			}
			if !bytes.Equal(want, got) {
				t.Errorf("%s: workers=%d output differs from serial", strategy, workers)
			}
		}
	}
}

// TestProgressMonotonicAcrossRungs covers the degenerate rung boundary:
// with a single feasible candidate both halving rungs have total 1, and
// the search-wide counter must still accumulate to 2/2 rather than
// reporting 1/1 twice.
func TestProgressMonotonicAcrossRungs(t *testing.T) {
	p := testProblem(nil, nil)
	p.Candidates = 1
	lastDone, lastTotal := -1, -1
	_, err := Optimize(p, Options{Strategy: "halving", Exec: sweep.Exec{
		Workers: 1,
		Progress: func(done, total int) {
			if done < lastDone || total < lastTotal {
				t.Errorf("progress went backwards: %d/%d after %d/%d", done, total, lastDone, lastTotal)
			}
			lastDone, lastTotal = done, total
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if lastDone != 2 || lastTotal != 2 {
		t.Errorf("final progress %d/%d, want 2/2 (estimate + simulate)", lastDone, lastTotal)
	}
}

func TestPruningAndFeasibility(t *testing.T) {
	p := testProblem(nil, nil)
	p.Feasible = func(i int) error {
		if i%2 == 0 {
			return errors.New("even candidates disallowed")
		}
		return nil
	}
	res, err := Optimize(p, Options{Strategy: "exhaustive"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible != 8 || res.Simulations != 8 {
		t.Errorf("feasible=%d simulations=%d, want 8/8", res.Feasible, res.Simulations)
	}
	if len(res.PrunedCandidates) != 8 {
		t.Fatalf("%d pruned, want 8", len(res.PrunedCandidates))
	}
	if res.PrunedCandidates[0].Candidate != 0 || !strings.Contains(res.PrunedCandidates[0].Reason, "disallowed") {
		t.Errorf("pruned[0] = %+v", res.PrunedCandidates[0])
	}
	if res.Best.Candidate != 11 {
		t.Errorf("best = %+v, want 11 (odd optimum)", res.Best)
	}

	p.Feasible = func(i int) error { return errors.New("nope") }
	if _, err := Optimize(p, Options{}); err == nil {
		t.Error("fully infeasible space accepted")
	}
}

// An eta so large that Eta*budget, or n+Eta-1, wraps is still a valid
// ratio: it promotes ceil(n/Eta) = 1 candidate and samples the whole space.
func TestHugeEtaDoesNotOverflow(t *testing.T) {
	const eta = math.MaxInt
	cases := []struct {
		name       string
		o          Options
		ests, sims int
	}{
		{"random with a budget", Options{Strategy: "random", MaxSimulations: 2, Eta: eta}, 16, 2},
		{"random with a population", Options{Strategy: "random", Population: 3, Eta: eta}, 3, 1},
		{"random by default", Options{Strategy: "random", Eta: eta}, 16, 1},
		{"halving", Options{Strategy: "halving", Eta: eta}, 16, 1},
	}
	for _, c := range cases {
		res, err := Optimize(testProblem(nil, nil), c.o)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if res.Estimates != c.ests || res.Simulations != c.sims {
			t.Errorf("%s: %d estimates / %d simulations, want %d / %d", c.name, res.Estimates, res.Simulations, c.ests, c.sims)
		}
	}
}

func TestCeilDiv(t *testing.T) {
	for _, c := range []struct{ a, b, want int }{
		{0, 1, 0}, {1, 1, 1}, {7, 1, 7}, {6, 4, 2}, {8, 4, 2}, {9, 4, 3},
		{3, math.MaxInt, 1}, {math.MaxInt, math.MaxInt, 1}, {math.MaxInt, 2, math.MaxInt/2 + 1},
	} {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestOptimizeErrors(t *testing.T) {
	good := testProblem(nil, nil)
	cases := []struct {
		name string
		p    Problem
		o    Options
	}{
		{"empty space", Problem{Name: "x", Candidates: 0, Label: good.Label, Simulate: good.Simulate}, Options{}},
		{"nil simulate", Problem{Name: "x", Candidates: 4, Label: good.Label}, Options{}},
		{"nil label", Problem{Name: "x", Candidates: 4, Simulate: good.Simulate}, Options{}},
		{"unknown strategy", good, Options{Strategy: "annealing"}},
		{"bad eta", good, Options{Eta: 1}},
	}
	for _, c := range cases {
		if _, err := Optimize(c.p, c.o); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}

	// Halving needs the estimator.
	p := good
	p.Estimate = nil
	if _, err := Optimize(p, Options{Strategy: "halving"}); err == nil {
		t.Error("halving without estimator accepted")
	}
	// But exhaustive does not.
	if _, err := Optimize(p, Options{Strategy: "exhaustive"}); err != nil {
		t.Errorf("exhaustive without estimator failed: %v", err)
	}

	// Evaluation failures surface as cell errors naming the candidate.
	p = good
	p.Simulate = func(i int) (float64, error) {
		if i == 5 {
			return 0, errors.New("boom")
		}
		return 1, nil
	}
	_, err := Optimize(p, Options{Strategy: "exhaustive"})
	if err == nil || !strings.Contains(err.Error(), "cand-05") {
		t.Errorf("cell failure not reported: %v", err)
	}
}

func TestStrategyRegistry(t *testing.T) {
	names := strings.Join(Strategies(), ", ")
	if want := "exhaustive, grid, halving, random, sha, successive-halving, sweep"; names != want {
		t.Errorf("strategies = %q, want %q", names, want)
	}
	for name, want := range map[string]string{
		"": "halving", "Successive-Halving": "halving", "SHA": "halving",
		"grid": "exhaustive", "Sweep": "exhaustive", "RANDOM": "random",
	} {
		if got, err := CanonicalStrategy(name); err != nil || got != want {
			t.Errorf("CanonicalStrategy(%q) = %q, %v; want %q", name, got, err, want)
		}
	}
	_, err := CanonicalStrategy("annealing")
	if want := `search: unknown strategy "annealing" (registered: ` + names + ")"; err == nil || err.Error() != want {
		t.Errorf("unknown strategy error = %v, want %q", err, want)
	}
	// The canonical name, not the alias, is what a result reports.
	res, err := Optimize(testProblem(nil, nil), Options{Strategy: "Grid"})
	if err != nil || res.Strategy != "exhaustive" {
		t.Errorf("alias run: strategy %v, %v; want exhaustive", res, err)
	}
}

func TestTableShape(t *testing.T) {
	res, err := Optimize(testProblem(nil, nil), Options{Strategy: "halving"})
	if err != nil {
		t.Fatal(err)
	}
	var tbl bytes.Buffer
	if err := res.WriteTable(&tbl); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"strategy=halving", "rung 0: estimate", "rung 1: simulate", "best: cand-11"} {
		if !strings.Contains(tbl.String(), want) {
			t.Errorf("table missing %q:\n%s", want, tbl.String())
		}
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzOptimizeOptions drives every strategy with arbitrary options over a
// cheap synthetic space of 1 to 32 candidates, some of them pruned. Any
// input yields a result or an error, never a panic, and a result never
// simulates more candidates than are feasible.
func FuzzOptimizeOptions(f *testing.F) {
	f.Add("random", int64(1), 2, 0, math.MaxInt, uint8(15), uint32(0))
	f.Add("random", int64(1), 0, 3, math.MaxInt, uint8(15), uint32(0))
	f.Add("halving", int64(7), 0, 0, 0, uint8(31), uint32(0x5555))
	f.Add("exhaustive", int64(0), -1, -1, 2, uint8(0), uint32(1))
	f.Add("SHA", int64(-3), math.MaxInt, math.MaxInt, 3, uint8(8), uint32(0xffffffff))
	f.Fuzz(func(t *testing.T, strategy string, seed int64, maxSims, population, eta int, space uint8, pruned uint32) {
		p := testProblem(nil, nil)
		p.Candidates = 1 + int(space%32)
		p.Feasible = func(i int) error {
			if pruned>>i&1 != 0 {
				return errors.New("pruned")
			}
			return nil
		}
		feasible := 0
		for i := 0; i < p.Candidates; i++ {
			if p.Feasible(i) == nil {
				feasible++
			}
		}
		res, err := Optimize(p, Options{
			Strategy:       strategy,
			Seed:           seed,
			MaxSimulations: maxSims,
			Population:     population,
			Eta:            eta,
			Exec:           sweep.Exec{Workers: 1},
		})
		if err != nil {
			return
		}
		if res.Feasible != feasible {
			t.Fatalf("feasible = %d, want %d", res.Feasible, feasible)
		}
		if res.Simulations < 1 || res.Simulations > feasible || res.Estimates > feasible {
			t.Fatalf("%d simulations and %d estimates over %d feasible candidates", res.Simulations, res.Estimates, feasible)
		}
		if pruned>>res.Best.Candidate&1 != 0 {
			t.Fatalf("best candidate %d was pruned", res.Best.Candidate)
		}
	})
}
