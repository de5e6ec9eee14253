package experiments

import (
	"encoding/json"
	"testing"

	"repro/internal/sweep"
)

// The sweep engine guarantees that parallel execution is byte-identical
// to serial. These tests hold every reproduced artifact to that bar and
// check the one result Fig. 11 shares between its bars and its grid.

// marshal renders an experiment result for byte comparison.
func marshal(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestExperimentsDeterministicAcrossWorkers(t *testing.T) {
	type runner struct {
		name    string
		run     func(o Options) (any, error)
		workers []int // parallel worker counts compared against serial
	}
	cheap := []int{4, 16}
	runners := []runner{
		{"fig4", func(o Options) (any, error) { return Fig4(o) }, cheap},
		{"tableiv", func(o Options) (any, error) { return TableIV(o) }, cheap},
		{"ablation", func(o Options) (any, error) { return Ablation(o) }, cheap},
		{"pooldesigns", func(o Options) (any, error) { return PoolDesigns(o) }, cheap},
	}
	if !testing.Short() {
		// The heavy grids re-simulate per worker count, so they compare a
		// single parallel setting. Fig9b shares caseStudySpec with Fig9a
		// and adds no new engine path; its determinism is covered there.
		runners = append(runners,
			runner{"fig9a", func(o Options) (any, error) { return Fig9a(o) }, []int{4}},
			runner{"fig11", func(o Options) (any, error) { return Fig11(o) }, []int{4}},
		)
	}
	for _, r := range runners {
		t.Run(r.name, func(t *testing.T) {
			serial, err := r.run(Options{Reduced: true, Exec: sweep.Exec{Workers: 1}})
			if err != nil {
				t.Fatal(err)
			}
			want := marshal(t, serial)
			for _, workers := range r.workers {
				parallel, err := r.run(Options{Reduced: true, Exec: sweep.Exec{Workers: workers}})
				if err != nil {
					t.Fatal(err)
				}
				if got := marshal(t, parallel); string(got) != string(want) {
					t.Errorf("workers=%d: result differs from serial run", workers)
				}
			}
		})
	}
}

// Fig. 11's HierMem baseline bar is its design grid's first cell, (256,
// 100), read from the grid instead of simulated a second time.
func TestFig11SharesBaselineWithSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates seven MoE-1T iterations")
	}
	res, err := Fig11(Options{Reduced: true})
	if err != nil {
		t.Fatal(err)
	}
	base, err := res.Bar(SysHierMemBaseline)
	if err != nil {
		t.Fatal(err)
	}
	if base.InNodeFabricGBps != 256 || base.RemoteGroupGBps != 100 {
		t.Errorf("baseline bar at (%g, %g), want (256, 100)", base.InNodeFabricGBps, base.RemoteGroupGBps)
	}
	first := res.Sweep[0]
	if first.InNodeFabricGBps != 256 || first.RemoteGroupGBps != 100 {
		t.Errorf("grid starts at (%g, %g), want (256, 100)", first.InNodeFabricGBps, first.RemoteGroupGBps)
	}
	if first.Total != base.Total {
		t.Errorf("grid's (256, 100) cell = %v, want the baseline bar's %v", first.Total, base.Total)
	}
}
