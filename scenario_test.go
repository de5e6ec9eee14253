package astrasim

import (
	"encoding/json"
	"strings"
	"testing"
)

func scenarioTestMachineConfig() MachineConfig {
	return MachineConfig{Topology: "R(8)", BandwidthsGBps: []float64{300}}
}

// TestRunScenarioZeroEvents locks in the facade-level byte-identity
// contract: a scenario with no events reproduces the clean run exactly.
func TestRunScenarioZeroEvents(t *testing.T) {
	res, err := RunScenario(ScenarioSpec{
		Name:     "noop",
		Machine:  scenarioTestMachineConfig(),
		Workload: WorkloadSpec{Kind: "all_reduce", SizeBytes: 64 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Slowdown != 1 {
		t.Errorf("zero-event slowdown = %g, want exactly 1", res.Slowdown)
	}
	clean, _ := json.Marshal(res.Clean)
	perturbed, _ := json.Marshal(res.Perturbed)
	if string(clean) != string(perturbed) {
		t.Errorf("zero-event runs diverged:\nclean     %s\nperturbed %s", clean, perturbed)
	}
}

// TestRunScenarioDegrade checks that a from-the-start bandwidth halving of
// the only dimension doubles a pure collective's makespan.
func TestRunScenarioDegrade(t *testing.T) {
	res, err := RunScenario(ScenarioSpec{
		Name:     "halve",
		Machine:  scenarioTestMachineConfig(),
		Workload: WorkloadSpec{Kind: "all_reduce", SizeBytes: 64 << 20},
		Events:   []ScenarioEventSpec{{Kind: "degrade_link", Dim: 0, Factor: 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Slowdown < 1.9 || res.Slowdown > 2.1 {
		t.Errorf("halved-bandwidth slowdown = %g, want ~2", res.Slowdown)
	}
}

// TestRunScenarioStraggler checks that slowing a single NPU's compute
// stretches a compute-bearing workload, and that restoring the factor to 1
// via a later event clears it.
func TestRunScenarioStraggler(t *testing.T) {
	res, err := RunScenario(ScenarioSpec{
		Machine:  scenarioTestMachineConfig(),
		Workload: WorkloadSpec{Kind: "dlrm"},
		Events:   []ScenarioEventSpec{{Kind: "straggle_npu", NPU: 3, Factor: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Slowdown <= 1 {
		t.Errorf("straggler slowdown = %g, want > 1", res.Slowdown)
	}
}

// TestRunScenarioRestore checks that restoring a degraded link speeds the
// run back up: GPT-3 with its innermost dimension cut to a quarter at 500us
// and restored at 2000us beats the run left degraded, yet stays slower than
// clean.
func TestRunScenarioRestore(t *testing.T) {
	slowdown := func(events ...ScenarioEventSpec) float64 {
		t.Helper()
		res, err := RunScenario(ScenarioSpec{
			// GPT-3's model-parallel group needs 16 NPUs.
			Machine:  MachineConfig{Topology: "R(4)_SW(4)", BandwidthsGBps: []float64{300, 100}},
			Workload: WorkloadSpec{Kind: "gpt3"},
			Events:   events,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Slowdown
	}
	degrade := ScenarioEventSpec{Kind: "degrade_link", AtUs: 500, Dim: 0, Factor: 0.25}
	degraded := slowdown(degrade)
	restored := slowdown(degrade, ScenarioEventSpec{Kind: "restore_link", AtUs: 2000, Dim: 0})
	if !(1 < restored && restored < degraded) {
		t.Errorf("slowdown: degrade+restore %g, degrade only %g; want 1 < degrade+restore < degrade only", restored, degraded)
	}
}

// TestLoadScenarioSpecErrors checks that malformed documents fail loudly at
// load time instead of surfacing mid-simulation.
func TestLoadScenarioSpecErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"malformed_json", `{"events":`},
		{"unknown_field", `{"bogus":1}`},
		{"unknown_kind", `{"events":[{"kind":"explode"}]}`},
		{"missing_kind", `{"events":[{"at_us":5}]}`},
		{"negative_time", `{"events":[{"kind":"degrade_link","at_us":-1,"factor":0.5}]}`},
		{"negative_factor", `{"events":[{"kind":"degrade_link","factor":-0.5}]}`},
		{"zero_factor", `{"events":[{"kind":"degrade_link"}]}`},
		{"negative_recovery", `{"events":[{"kind":"fail_link","recovery_us":-3}]}`},
		{"negative_dim", `{"events":[{"kind":"fail_link","dim":-1}]}`},
		{"negative_npu", `{"events":[{"kind":"straggle_npu","npu":-2,"factor":2}]}`},
		{"fail_npu_no_recovery", `{"events":[{"kind":"fail_npu","npu":1}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := LoadScenarioSpec(strings.NewReader(tc.doc)); err == nil {
				t.Errorf("invalid spec accepted: %s", tc.doc)
			}
		})
	}
}

// TestRunScenarioBounds checks machine-relative validation: events naming
// dimensions or NPUs the machine does not have are rejected at run time.
func TestRunScenarioBounds(t *testing.T) {
	base := ScenarioSpec{
		Machine:  scenarioTestMachineConfig(),
		Workload: WorkloadSpec{Kind: "all_reduce", SizeBytes: 1 << 20},
	}
	outOfDim := base
	outOfDim.Events = []ScenarioEventSpec{{Kind: "degrade_link", Dim: 3, Factor: 0.5}}
	if _, err := RunScenario(outOfDim); err == nil {
		t.Error("out-of-range dimension accepted")
	}
	outOfNPU := base
	outOfNPU.Events = []ScenarioEventSpec{{Kind: "straggle_npu", NPU: 64, Factor: 2}}
	if _, err := RunScenario(outOfNPU); err == nil {
		t.Error("out-of-range NPU accepted")
	}
}
