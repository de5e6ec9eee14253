package astrasim

import (
	"strings"
	"testing"

	"repro/internal/cluster"
)

// Spec-loader fuzz targets: any byte stream must either load into a valid
// spec or return an error — never panic — and a loaded spec's machine,
// workload and placement vocabulary must construct (or reject) cleanly.
// Trace generation and simulation are deliberately out of scope: the
// contract under fuzz is the parsing and validation surface.

func fuzzSweepSeeds() []string {
	return []string{
		`{}`,
		`{"name":"g","machines":[{"name":"m","config":{"Topology":"R(4)","BandwidthsGBps":[250]}}],"workloads":[{"kind":"all_reduce"}]}`,
		`{"machines":[{"config":{"Topology":"T2D(4,4)_SW(8,4)","BandwidthsGBps":[500,250]}}],"workloads":[{"kind":"gpt3"},{"kind":"dlrm"},{"kind":"moe"}]}`,
		`{"workloads":[{"kind":"transformer","params":1e9,"layers":4,"hidden":1024,"seq_len":128,"micro_batch":1,"bytes_per_elem":2,"mp":4}]}`,
		`{"workloads":[{"kind":"pipeline","stages":4,"micro_batches":8,"flops_per_stage":1e12}]}`,
		`{"machines":[{"config":{"Topology":"Q(4)"}}],"workloads":[{"kind":"nope"}]}`,
		`{"machines":[{"config":{"Topology":"R(4)","BandwidthsGBps":[-1]}}]}`,
		`[1,2,3]`, `null`, `"str"`, `{"unknown_field":1}`, `{"name":`,
	}
}

// checkMachines builds each machine config; construction errors are fine,
// panics are the bug.
func checkMachines(t *testing.T, machines []SweepMachine) {
	for _, sm := range machines {
		if sm.Config.Topology == "" {
			continue
		}
		if m, err := NewMachine(sm.Config); err == nil && m.NumNPUs() < 2 {
			t.Fatalf("NewMachine(%+v) accepted a %d-NPU machine", sm.Config, m.NumNPUs())
		}
	}
}

func FuzzLoadSweepSpec(f *testing.F) {
	for _, s := range fuzzSweepSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		spec, err := LoadSweepSpec(strings.NewReader(doc))
		if err != nil {
			return
		}
		checkMachines(t, spec.Machines)
		for _, ws := range spec.Workloads {
			_, _ = ws.Workload() // must not panic
		}
	})
}

func fuzzSearchSeeds() []string {
	return []string{
		`{}`,
		`{"strategy":"halving","topologies":["T2D(16,32)","R(16)_R(32)"],"bandwidths":[[500],[250,250]],"workloads":[{"kind":"gpt3"}]}`,
		`{"strategy":"random","seed":7,"population":8,"max_simulations":2,"objective":"comm","workloads":[{"kind":"all_reduce"}]}`,
		`{"max_aggregate_gbps":600,"machines":[{"config":{"Topology":"SW(16)","BandwidthsGBps":[700]}}],"workloads":[{"kind":"dlrm"}]}`,
		`{"proxy_op":"bogus","workloads":[{"kind":"all_reduce"}]}`,
		`{"cluster":{"jobs":[{"npus":16,"count":4,"workload":{"kind":"dlrm"}}],"placements":["packed","strided"]},"topologies":["SW(8)_SW(16,4)"],"bandwidths":[[250,250]]}`,
		`{"strategy":"annealing"}`, `{"objective":"vibes"}`, `{`,
	}
}

func FuzzLoadSearchSpec(f *testing.F) {
	for _, s := range fuzzSearchSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		spec, err := LoadSearchSpec(strings.NewReader(doc))
		if err != nil {
			return
		}
		// The machine-candidate builder must absorb any loaded spec:
		// infeasible candidates become pruning reasons, not panics.
		if len(spec.Machines) != 0 || len(spec.Topologies) != 0 {
			_, _ = buildSearchMachines(spec)
		}
		// So must the second axis, in either mode: workloads, or cluster
		// jobs and placement policies.
		if spec.Cluster != nil {
			for _, js := range spec.Cluster.Jobs {
				if js.Count > 1<<10 {
					return // keep job expansion bounded under fuzz
				}
			}
		}
		_, _ = buildSearchAxis(spec)
	})
}

func fuzzClusterSeeds() []string {
	return []string{
		`{}`,
		`{"fabric":{"Topology":"SW(8)_SW(16,4)","BandwidthsGBps":[250,250]},"jobs":[{"npus":16,"count":4,"workload":{"kind":"gpt3"}}]}`,
		`{"fabric":{"Topology":"T2D(4,4)_SW(8)","BandwidthsGBps":[500,250]},"placement":"strided","seed":3,"jobs":[{"npus":16,"workload":{"kind":"dlrm"}},{"npus":32,"arrival_us":50,"workload":{"kind":"moe"}}]}`,
		`{"fabric":{"Topology":"R(4)"},"placement":"diagonal","jobs":[{"npus":3,"workload":{"kind":"all_reduce"}}]}`,
		`{"jobs":[{"npus":-1,"count":-2,"workload":{"kind":""}}]}`,
		`{"fabric":{"Topology":"SW(4)","BandwidthsGBps":[250]},"jobs":[{"npus":2,"workload":{"kind":"all_reduce"}},{"npus":2,"workload":{"kind":"all_reduce"}},{"npus":2,"workload":{"kind":"all_reduce"}}]}`,
	}
}

func fuzzScenarioSeeds() []string {
	return []string{
		`{}`,
		`{"name":"degrade","machine":{"Topology":"R(8)","BandwidthsGBps":[300]},"workload":{"kind":"all_reduce","size_bytes":1048576},"events":[{"kind":"degrade_link","at_us":50,"dim":0,"factor":0.25}]}`,
		`{"machine":{"Topology":"T2D(4,4)_SW(8,4)","BandwidthsGBps":[500,250]},"workload":{"kind":"dlrm"},"events":[{"kind":"fail_link","at_us":10,"dim":1,"recovery_us":100},{"kind":"fail_npu","npu":3,"recovery_us":20},{"kind":"straggle_npu","npu":7,"factor":1.3},{"kind":"restore_link","at_us":200,"dim":1}]}`,
		`{"events":[{"kind":"degrade_link","at_us":-5,"factor":0.5}]}`,
		`{"events":[{"kind":"explode"}]}`,
		`{"events":[{"kind":"degrade_link","factor":-1}]}`,
		`{"events":[{"kind":"fail_npu","npu":2}]}`,
		`{"machine":{"Topology":"R(4)","BandwidthsGBps":[-100]},"events":[{"kind":"straggle_npu","npu":99,"factor":2}]}`,
		`[1]`, `null`, `{"events":[`, `{"unknown":true}`,
	}
}

// FuzzLoadScenarioSpec exercises scenario loading plus machine-relative
// validation: any byte stream must load cleanly or error — malformed times,
// unknown kinds and negative bandwidths or factors are rejections, never
// panics.
func FuzzLoadScenarioSpec(f *testing.F) {
	for _, s := range fuzzScenarioSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		spec, err := LoadScenarioSpec(strings.NewReader(doc))
		if err != nil {
			return
		}
		sc, err := spec.buildScenario()
		if err != nil {
			t.Fatalf("loaded spec failed structural validation: %v", err)
		}
		_, _ = spec.Workload.Workload() // must not panic
		if spec.Machine.Topology == "" {
			return
		}
		m, err := NewMachine(spec.Machine)
		if err != nil || m.NumNPUs() > 1<<16 {
			return
		}
		// Machine-relative bounds: rejections are expected, panics are the
		// bug.
		_ = sc.Validate(m.NumNPUs(), m.top.NumDims())
	})
}

// FuzzLoadClusterSpec exercises loading plus the pure planning layer
// (placement parsing, fabric carving, layout validation) — everything up
// to, but not including, simulation.
func FuzzLoadClusterSpec(f *testing.F) {
	for _, s := range fuzzClusterSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		spec, err := LoadClusterSpec(strings.NewReader(doc))
		if err != nil {
			return
		}
		m, err := NewMachine(spec.Fabric)
		if err != nil {
			return
		}
		if m.NumNPUs() > 1<<16 {
			return // keep planning allocations bounded under fuzz
		}
		placement, err := cluster.ParsePlacement(spec.Placement)
		if err != nil {
			return
		}
		jobs, err := expandClusterJobs(spec.Jobs)
		if err != nil {
			return
		}
		total := 0
		for _, j := range jobs {
			if j.spec.NPUs > 0 {
				total += j.spec.NPUs
			}
		}
		if total > 1<<16 {
			return
		}
		// Planning rejections are expected; panics are the bug.
		cfg := clusterConfig(m, placement, spec.Seed, jobs)
		_, _ = cluster.Plan(cfg.Fabric, cfg.Jobs, cfg.Placement, cfg.Seed)
	})
}
