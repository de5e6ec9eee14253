package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/topology"
)

func digestFor(t *testing.T, w workload, p params) string {
	t.Helper()
	s, err := measure(w, p, time.Now(), false)
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, p.seed, err)
	}
	return s.Digest
}

// Two samples with one seed agree, and a second seed changes only the
// seeded workload's results. At full size (without -short) seed 1 must
// also match the committed digests.
func TestDigestsRepeatAndFollowSeed(t *testing.T) {
	tiny := testing.Short()
	expected := map[string]string{}
	if err := json.Unmarshal(expectedJSON, &expected); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		a := digestFor(t, w, params{seed: 1, tiny: tiny})
		if b := digestFor(t, w, params{seed: 1, tiny: tiny}); a != b {
			t.Errorf("%s: repeated samples disagree: %s vs %s", w.name, a, b)
		}
		if c := digestFor(t, w, params{seed: 2, tiny: tiny}); (c != a) != w.seeded {
			t.Errorf("%s: seed 2 digest changed=%v, want %v", w.name, c != a, w.seeded)
		}
		if !tiny && a != expected[w.name] {
			t.Errorf("%s: digest %s, committed %s", w.name, a, expected[w.name])
		}
	}
}

func TestPaperDigestIndependentOfWorkers(t *testing.T) {
	w, err := findWorkload("paper_reduced")
	if err != nil {
		t.Fatal(err)
	}
	one := digestFor(t, w, params{tiny: true, workers: 1})
	if two := digestFor(t, w, params{tiny: true, workers: 2}); one != two {
		t.Errorf("1 worker %s, 2 workers %s", one, two)
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mapassign", "repro/internal/core.(*Simulator).issue", "main.main"}, "core"},
		{[]string{"fmt.Sprintf", "repro/internal/collective.Group.Signature", "repro/internal/core.(*Simulator).issueCollective"}, "collective"},
		{[]string{"repro/internal/sweep.Run[...].func1"}, "sweep"},
		{[]string{"repro/internal/units.Time.Micros", "repro/internal/experiments.runCell"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime._GC"}, "gc"},
		{[]string{"syscall.Syscall", "main.main"}, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// A busy loop in one package, profiled by runtime/pprof, decodes to a
// profile whose samples the attribution charges to that package, its
// allocations included.
func TestDecoderAttributesBusyLoop(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	for end := time.Now().Add(time.Second); time.Now().Before(end); {
		if _, err := topology.Parse("R(4)_FC(8)_SW(16,4)"); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for _, fn := range s.stack {
			found = found || strings.HasPrefix(fn, "repro/internal/topology.")
		}
	}
	if !found {
		t.Fatal("no sample has a topology frame")
	}
	self, err := layerSelfTimes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// The collector's workers and, under -race, the race runtime's C
	// frames carry no simulator frame; everything else is the loop.
	sim := 0.0
	for l, v := range self {
		if l != "gc" && l != "other" {
			sim += v
		}
	}
	if sim == 0 || self["topology"]/sim < 0.9 {
		t.Errorf("topology has %.2fs of the %.2fs charged to simulator layers, want nearly all: %v", self["topology"], sim, self)
	}
}

func testReport(wall float64, digest string) *report {
	wr := &workloadReport{Name: "gpt3_conv4096", Seed: 1}
	for i := 0; i < 3; i++ {
		wr.Samples = append(wr.Samples, &sample{Workload: wr.Name, Seed: 1, Digest: digest, Metrics: map[string]float64{
			"wall_s": wall + 0.01*float64(i), "setup_s": 0.4, "cpu_s": wall, "peak_rss_mb": 370, "alloc_mb": 840,
		}})
	}
	wr.finish("")
	return &report{Seed: 1, Workloads: []*workloadReport{wr}}
}

func TestCompareFlagsRegressions(t *testing.T) {
	var out bytes.Buffer
	base := testReport(5, "d1")
	if n := compareReports(&out, base, testReport(5.2, "d1")); n != 0 {
		t.Errorf("4%% slower flagged %d regressions:\n%s", n, out.String())
	}
	out.Reset()
	if n := compareReports(&out, base, testReport(7, "d1")); n != 2 || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("40%% slower wall and CPU: %d regressions, want 2:\n%s", n, out.String())
	}
	out.Reset()
	if n := compareReports(&out, base, testReport(5, "d2")); n != 1 {
		t.Errorf("changed digest: %d regressions, want 1:\n%s", n, out.String())
	}
}

func TestFinishCountsDisagreeingSamples(t *testing.T) {
	wr := testReport(5, "d1").Workloads[0]
	wr.Samples[2].Digest = "d2"
	wr.Samples = append(wr.Samples, &sample{Err: "exit status 2"})
	wr.finish("")
	if wr.Attempted != 4 || wr.Failed != 2 {
		t.Errorf("attempted %d failed %d, want 4 and 2", wr.Attempted, wr.Failed)
	}
	wr.finish("d0")
	if wr.Failed != 4 {
		t.Errorf("against a different expected digest failed %d, want 4", wr.Failed)
	}
}

// BENCHMARK.json at the repository root lists the workloads and the
// metric tables this command reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, here %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%+v\n%+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%+v\n%+v", spec.PerLayer, perLayer)
	}
}
