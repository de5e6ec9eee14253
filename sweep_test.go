package astrasim

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"
)

func testSweepSpec() SweepSpec {
	return SweepSpec{
		Name: "test",
		Machines: []SweepMachine{
			{Name: "ring", Config: MachineConfig{Topology: "R(4)", BandwidthsGBps: []float64{300}}},
			{Name: "switch", Config: MachineConfig{Topology: "SW(4)", BandwidthsGBps: []float64{300}}},
		},
		Workloads: []WorkloadSpec{
			{Kind: "all_reduce", SizeBytes: 64 << 20},
			{Kind: "all_gather", SizeBytes: 64 << 20},
		},
	}
}

func TestRunSweepGrid(t *testing.T) {
	res, err := RunSweep(testSweepSpec(), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells != 4 || len(res.Rows) != 4 {
		t.Fatalf("got %d cells / %d rows, want 4 / 4", res.Cells, len(res.Rows))
	}
	if res.Executed != 4 {
		t.Errorf("executed %d, want 4 (all cells distinct)", res.Executed)
	}
	// Machine-major order.
	wantOrder := []string{"ring", "ring", "switch", "switch"}
	for i, row := range res.Rows {
		if row.Machine != wantOrder[i] {
			t.Errorf("row %d machine = %q, want %q", i, row.Machine, wantOrder[i])
		}
		if row.Report == nil || row.Report.Makespan <= 0 {
			t.Errorf("row %d has no report", i)
		}
	}
	// Every cell matches a direct single run.
	m, err := NewMachine(MachineConfig{Topology: "R(4)", BandwidthsGBps: []float64{300}})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := m.Run(Collective("all_reduce", 64<<20))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0].Report.Makespan != direct.Makespan {
		t.Errorf("sweep cell makespan %v != direct run %v", res.Rows[0].Report.Makespan, direct.Makespan)
	}
}

func TestRunSweepDeterministicAndDeduplicated(t *testing.T) {
	spec := testSweepSpec()
	// Duplicate the first machine under another name: same content, so it
	// must be simulated once and share results.
	spec.Machines = append(spec.Machines, SweepMachine{Name: "ring-again", Config: spec.Machines[0].Config})

	serial, err := RunSweep(spec, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Cells != 6 || serial.Executed != 4 {
		t.Errorf("cells=%d executed=%d, want 6 cells with 4 simulated", serial.Cells, serial.Executed)
	}
	for i := 0; i < 2; i++ {
		if serial.Rows[i].Report.Makespan != serial.Rows[4+i].Report.Makespan {
			t.Errorf("duplicate machine row %d differs from original", i)
		}
	}

	var want bytes.Buffer
	if err := serial.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		par, err := RunSweep(spec, SweepOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := par.WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("workers=%d: CSV differs from serial", workers)
		}
	}
}

func TestRunSweepProgressAndErrors(t *testing.T) {
	var last int
	spec := testSweepSpec()
	if _, err := RunSweep(spec, SweepOptions{Progress: func(done, total int) { last = done }}); err != nil {
		t.Fatal(err)
	}
	if last != 4 {
		t.Errorf("final progress = %d, want 4", last)
	}

	spec.Machines[1].Config.Topology = "NOPE(4)"
	if _, err := RunSweep(spec, SweepOptions{}); err == nil {
		t.Error("bad machine config accepted")
	}
	spec = testSweepSpec()
	spec.Workloads[0].Kind = "nope"
	if _, err := RunSweep(spec, SweepOptions{}); err == nil {
		t.Error("bad workload accepted")
	}
	if _, err := RunSweep(SweepSpec{}, SweepOptions{}); err == nil {
		t.Error("empty spec accepted")
	}
}

// A negative iteration count is an error naming the kind and the count,
// through every spec that carries a workload; 0 and 1 both run the
// workload once.
func TestWorkloadIterationCounts(t *testing.T) {
	spec := func(iters int) SweepSpec {
		return SweepSpec{
			Machines:  []SweepMachine{{Config: MachineConfig{Topology: "R(4)", BandwidthsGBps: []float64{300}}}},
			Workloads: []WorkloadSpec{{Kind: "all_reduce", SizeBytes: 1 << 20, Iterations: iters}},
		}
	}
	const want = `workload kind "all_reduce" has a negative iteration count -3`
	if _, err := RunSweep(spec(-3), SweepOptions{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("sweep with iterations -3: error %v, want one containing %q", err, want)
	}
	_, err := RunScenario(ScenarioSpec{
		Machine:  scenarioTestMachineConfig(),
		Workload: WorkloadSpec{Kind: "all_reduce", SizeBytes: 1 << 20, Iterations: -3},
	})
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("scenario with iterations -3: error %v, want one containing %q", err, want)
	}
	var makespans []time.Duration
	for _, iters := range []int{0, 1, 2} {
		res, err := RunSweep(spec(iters), SweepOptions{})
		if err != nil {
			t.Fatalf("iterations %d: %v", iters, err)
		}
		makespans = append(makespans, res.Rows[0].Report.Makespan)
	}
	if makespans[0] != makespans[1] || makespans[2] <= makespans[1] {
		t.Errorf("makespans for iterations 0, 1, 2 = %v, want the first two equal and the third longer", makespans)
	}
}

func TestLoadSweepSpec(t *testing.T) {
	doc := `{
	  "name": "bw-scan",
	  "machines": [
	    {"name": "conv", "config": {"Topology": "R(4)_SW(2)", "BandwidthsGBps": [200, 100]}}
	  ],
	  "workloads": [{"kind": "all_reduce", "size_bytes": 1048576}]
	}`
	spec, err := LoadSweepSpec(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "bw-scan" || len(spec.Machines) != 1 || len(spec.Workloads) != 1 {
		t.Fatalf("parsed spec %+v", spec)
	}
	res, err := RunSweep(spec, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows", len(res.Rows))
	}

	if _, err := LoadSweepSpec(strings.NewReader(`{"machiness": []}`)); err == nil {
		t.Error("unknown field accepted")
	}
}

// Every spec loader reads exactly one document: trailing whitespace is
// fine, and anything else after the document is an error.
func TestLoadSpecsRejectTrailingData(t *testing.T) {
	loaders := []struct {
		name string
		load func(io.Reader) error
	}{
		{"sweep", func(r io.Reader) error { _, err := LoadSweepSpec(r); return err }},
		{"search", func(r io.Reader) error { _, err := LoadSearchSpec(r); return err }},
		{"cluster", func(r io.Reader) error { _, err := LoadClusterSpec(r); return err }},
		{"scenario", func(r io.Reader) error { _, err := LoadScenarioSpec(r); return err }},
		{"machine", func(r io.Reader) error { _, err := LoadMachineConfig(r); return err }},
	}
	for _, l := range loaders {
		if err := l.load(strings.NewReader("{} \n\t")); err != nil {
			t.Errorf("%s: trailing whitespace rejected: %v", l.name, err)
		}
		for _, doc := range []string{"{} trailing garbage {", "{}{}", "{}]"} {
			want := "astrasim: parse " + l.name + " spec: data after the spec document"
			if err := l.load(strings.NewReader(doc)); err == nil || err.Error() != want {
				t.Errorf("%s %q: got %v, want %q", l.name, doc, err, want)
			}
		}
	}
}

// TestLoadMachineConfigRejectsTypos: a misspelled field in a -config file
// is an error, not a silent fall-back to the default scheduler.
func TestLoadMachineConfigRejectsTypos(t *testing.T) {
	cfg, err := LoadMachineConfig(strings.NewReader(`{"Topology":"R(4)","BandwidthsGBps":[100],"Scheduler":"themis","Chunks":8}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Topology != "R(4)" || cfg.Scheduler != "themis" || cfg.Chunks != 8 || len(cfg.BandwidthsGBps) != 1 {
		t.Errorf("decoded %+v", cfg)
	}
	_, err = LoadMachineConfig(strings.NewReader(`{"Topology":"R(4)","BandwidthsGBps":[100],"Schedular":"themis","Chunkz":8}`))
	const want = `astrasim: parse machine spec: json: unknown field "Schedular"`
	if err == nil || err.Error() != want {
		t.Errorf("misspelled field: got %v, want %q", err, want)
	}
}

func TestWorkloadSpecKinds(t *testing.T) {
	good := []WorkloadSpec{
		{Kind: "all_reduce"},
		{Kind: "reduce_scatter", SizeBytes: 1 << 20},
		{Kind: "gpt3"},
		{Kind: "t1t"},
		{Kind: "dlrm"},
		{Kind: "moe"},
		{Kind: "moe_inswitch"},
		{Kind: "transformer", Params: 1e9, Layers: 2, Hidden: 1024, SeqLen: 128, MicroBatch: 1, BytesPerElem: 2, MP: 4},
		{Kind: "fsdp", Params: 1e9, Layers: 2, Hidden: 1024, SeqLen: 128, MicroBatch: 1, BytesPerElem: 2},
		{Kind: "pipeline", Stages: 4, MicroBatches: 8, FlopsPerStage: 1e12, ActivationBytes: 1 << 20, GradBytes: 1 << 20},
		{Kind: "all_to_all", Iterations: 3},
	}
	for _, ws := range good {
		if _, err := ws.Workload(); err != nil {
			t.Errorf("%s: %v", ws.Kind, err)
		}
	}
	bad := []WorkloadSpec{
		{Kind: "nope"},
		{Kind: "trace"}, // no path
		{},
	}
	for _, ws := range bad {
		if _, err := ws.Workload(); err == nil {
			t.Errorf("%q accepted", ws.Kind)
		}
	}
	// Iterations wrap the name.
	w, err := WorkloadSpec{Kind: "all_reduce", SizeBytes: 1 << 20, Iterations: 3}.Workload()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(w.Name(), "3x ") {
		t.Errorf("iterated workload name = %q", w.Name())
	}
}

func TestSweepResultJSONRoundTrips(t *testing.T) {
	res, err := RunSweep(testSweepSpec(), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back SweepResult
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != len(res.Rows) || back.Rows[0].Report.Makespan != res.Rows[0].Report.Makespan {
		t.Error("JSON round-trip lost data")
	}
}
