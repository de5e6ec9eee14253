package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/compute"
	"repro/internal/convert"
	"repro/internal/et"
	"repro/internal/memory"
	"repro/internal/timeline"
	"repro/internal/topology"
	"repro/internal/units"
)

func fuzzTraceSeeds() []string {
	return []string{
		// ET: compute, a whole-machine and a subgroup collective, an
		// in-switch collective, remote memory and a send/recv pair.
		`{"name":"et","num_npus":4,"graphs":[` +
			`{"npu":0,"nodes":[{"id":1,"kind":"COMP","flops":1e9},{"id":2,"kind":"COMM_COLL","deps":[1],"collective":"ALL_REDUCE","comm_bytes":65536},{"id":3,"kind":"COMM_SEND","deps":[2],"peer":1,"tag":7,"comm_bytes":4096},{"id":4,"kind":"COMM_COLL","deps":[3],"collective":"ALL_GATHER","comm_bytes":512,"in_switch":true,"group":{"spans":[{"phys":0,"k":2,"stride":2}]}}]},` +
			`{"npu":1,"nodes":[{"id":1,"kind":"COMP","flops":1e9},{"id":2,"kind":"COMM_COLL","deps":[1],"collective":"ALL_REDUCE","comm_bytes":65536},{"id":3,"kind":"COMM_RECV","deps":[2],"peer":0,"tag":7,"comm_bytes":4096}]},` +
			`{"npu":2,"nodes":[{"id":5,"kind":"MEM","mem_op":"LOAD","mem_location":"REMOTE","tensor_bytes":1024},{"id":2,"kind":"COMM_COLL","deps":[5],"collective":"ALL_REDUCE","comm_bytes":65536},{"id":4,"kind":"COMM_COLL","deps":[2,2],"collective":"ALL_GATHER","comm_bytes":512,"in_switch":true,"group":{"spans":[{"phys":0,"k":2,"stride":2}]}}]},` +
			`{"npu":3,"nodes":[{"id":2,"kind":"COMM_COLL","collective":"ALL_REDUCE","comm_bytes":65536}]}]}`,
		// ET: a collective that only some members reach (deadlock).
		`{"num_npus":2,"graphs":[{"npu":0,"nodes":[{"id":1,"kind":"COMM_COLL","collective":"ALL_TO_ALL","comm_bytes":8}]},{"npu":1,"nodes":[]}]}`,
		// PARAM PyTorch graph.
		`{"name":"pt","num_npus":2,"graphs":[` +
			`{"rank":0,"nodes":[{"id":1,"name":"aten::matmul","attrs":{"flops":1e9}},{"id":2,"name":"nccl:all_reduce","ctrl_deps":[1],"attrs":{"comm_bytes":4096}},{"id":3,"name":"nccl:send","ctrl_deps":[2],"attrs":{"comm_bytes":64,"peer":1,"tag":5}}]},` +
			`{"rank":1,"nodes":[{"id":1,"name":"mem::load","attrs":{"tensor_bytes":4096,"remote":true}},{"id":2,"name":"nccl:all_reduce","ctrl_deps":[1],"attrs":{"comm_bytes":4096}},{"id":3,"name":"nccl:recv","ctrl_deps":[2],"attrs":{"comm_bytes":64,"peer":0,"tag":5}}]}]}`,
		// ET: IDs at both ends of int in one list (a map), IDs packed
		// against the top of int (an ID table), and a dependency just past
		// a list's span at the bottom of int.
		`{"num_npus":2,"graphs":[` +
			`{"npu":0,"nodes":[{"id":-9223372036854775808,"kind":"COMP","flops":1},{"id":9223372036854775807,"kind":"COMM_COLL","deps":[-9223372036854775808],"collective":"ALL_REDUCE","comm_bytes":64}]},` +
			`{"npu":1,"nodes":[{"id":9223372036854775806,"kind":"COMP","flops":1},{"id":9223372036854775807,"kind":"COMM_COLL","deps":[9223372036854775806],"collective":"ALL_REDUCE","comm_bytes":64}]}]}`,
		`{"num_npus":2,"graphs":[{"npu":0,"nodes":[{"id":-9223372036854775807,"kind":"COMP","flops":1},{"id":-9223372036854775808,"kind":"COMP","flops":1,"deps":[-9223372036854775806]}]},{"npu":1,"nodes":[]}]}`,
		// PARAM PyTorch graph with IDs at both ends of int.
		`{"num_npus":2,"graphs":[{"rank":0,"nodes":[{"id":9223372036854775807,"name":"aten::mm"},{"id":-9223372036854775808,"name":"aten::mm","ctrl_deps":[9223372036854775807]}]},{"rank":1,"nodes":[]}]}`,
		`{"num_npus":1,"graphs":[{"npu":0,"nodes":[]}]}`,
		`{"num_npus":2}`, `{`, `null`, `[]`,
		// ET with an unknown node kind, and with an unknown collective
		// name: both are decode errors.
		`{"num_npus":2,"graphs":[{"npu":0,"nodes":[{"id":1,"kind":"NOP"}]},{"npu":1,"nodes":[]}]}`,
		`{"num_npus":2,"graphs":[{"npu":0,"nodes":[{"id":1,"kind":"COMM_COLL","collective":"BROADCAST","comm_bytes":8}]},{"npu":1,"nodes":[{"id":1,"kind":"COMM_COLL","collective":"ALL_REDUCE","comm_bytes":8}]}]}`,
		// ET: a ring, every rank sending to the next and receiving from
		// the one before on one tag, so the rank-relative rewrite shares
		// one list among the inner ranks; then the same ring with one
		// size mismatch.
		ringSeed(4096),
		ringSeed(8192),
	}
}

// ringSeed is a 4-NPU ring trace in which rank 2 receives recv2 bytes and
// every other transfer is 4096 bytes.
func ringSeed(recv2 int) string {
	doc := `{"name":"ring","num_npus":4,"graphs":[`
	for r := 0; r < 4; r++ {
		recv := 4096
		if r == 2 {
			recv = recv2
		}
		if r > 0 {
			doc += ","
		}
		doc += fmt.Sprintf(`{"npu":%d,"nodes":[{"id":1,"kind":"COMP","flops":1e9},`+
			`{"id":2,"kind":"COMM_SEND","deps":[1],"peer":%d,"tag":3,"comm_bytes":4096},`+
			`{"id":3,"kind":"COMM_RECV","deps":[1],"peer":%d,"tag":3,"comm_bytes":%d}]}`, r, (r+1)%4, (r+3)%4, recv)
	}
	return doc + "]}"
}

// FuzzRunTrace feeds arbitrary bytes through the trace decoders into a
// whole simulation. The bytes are read as an ET document or, failing that,
// as a PARAM PyTorch graph through convert; any trace of 2-16 NPUs then
// runs for one to three iterations on SW(n) with a hierarchical memory
// pool, transit charging and an event budget. Start, Run and Finalize may
// return errors but must never panic.
//
// Each trace also runs in its rank-relative form (relativeRewrite, whose
// ranks share a list where their rewritten lists are equal), which must
// encode to the same bytes, fail Start exactly when the trace does and
// with the same error, and past Start give the same errors and RunStats.
// Both forms passed validation as absolute traces, so no peer is negative,
// and no error text may differ.
//
// Three oracles check the results:
//   - in a finished run, every NPU's breakdown adds up to the makespan;
//   - a trace that starts runs its iterations exactly as its unrolled
//     reference (unroll) does, with the same RunStats, and fails exactly
//     when it does, if every node ID and tag is within 2^20 of zero, so
//     that unrolling cannot overflow;
//   - the trace's JSON, decoded again and given the same iteration count,
//     fails to decode with the trace's Start error, or gives the same Start
//     error, or the same run errors and RunStats.
func FuzzRunTrace(f *testing.F) {
	for _, s := range fuzzTraceSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		trace, err := et.Decode(bytes.NewReader(doc))
		if err != nil {
			src, err := convert.DecodePyTorch(bytes.NewReader(doc))
			if err != nil {
				return
			}
			if trace, err = convert.Convert(src); err != nil {
				return
			}
		}
		n := trace.NumNPUs
		if n < 2 || n > 16 {
			return
		}
		trace.Iterations = 1 + len(doc)%3
		rel := relativeRewrite(trace)
		var abs, relDoc bytes.Buffer
		absErr, relErr := trace.Encode(&abs), rel.Encode(&relDoc)
		if errText(absErr) != errText(relErr) || !bytes.Equal(abs.Bytes(), relDoc.Bytes()) {
			t.Fatalf("rank-relative trace encodes differently: %v vs %v\n%s\n%s", absErr, relErr, abs.Bytes(), relDoc.Bytes())
		}
		top, err := topology.New(topology.Dim{Kind: topology.Switch, Size: n, Bandwidth: units.GBps(100), Latency: 500 * units.Nanosecond})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Topology: top,
			Compute:  compute.Model{Peak: units.TFLOPS(100), MemBandwidth: units.GBps(2000)},
			Memory: memory.System{
				Local:   memory.LocalModel{Latency: units.Microsecond, Bandwidth: units.GBps(2000)},
				HasPool: true,
				Pool: memory.PoolConfig{
					Design:             memory.Hierarchical,
					NumNodes:           2,
					GPUsPerNode:        8,
					NumOutSwitches:     2,
					NumRemoteGroups:    4,
					RemoteGroupBW:      units.GBps(100),
					GPUSideOutFabricBW: units.GBps(100),
					InNodeFabricBW:     units.GBps(256),
				},
			},
			Chunks:                 4,
			ModelTransitCongestion: true,
		}
		// simulate returns Start's error, or the run's and Finalize's.
		simulate := func(tr *et.Trace) (startErr, runErr error, stats *RunStats) {
			eng := timeline.New()
			eng.SetEventBudget(1 << 16)
			sim, err := NewSimulatorOn(eng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.Start(tr, 0); err != nil {
				return err, nil, nil
			}
			_, runErr = eng.Run()
			stats, err = sim.Finalize()
			return nil, errors.Join(runErr, err), stats
		}
		absStart, absRun, absStats := simulate(trace)
		relStart, relRun, relStats := simulate(rel)
		if errText(absStart) != errText(relStart) {
			t.Fatalf("Start: %v, but %v for the rank-relative trace", absStart, relStart)
		}
		if errText(absRun) != errText(relRun) || !reflect.DeepEqual(absStats, relStats) {
			t.Fatalf("run: %v, but %v for the rank-relative trace; stats equal: %v", absRun, relRun, reflect.DeepEqual(absStats, relStats))
		}
		if absErr == nil {
			var decStart, decRun error
			var decStats *RunStats
			decoded, err := et.Decode(&abs)
			if err != nil {
				decStart = err
			} else {
				decoded.Iterations = trace.Iterations
				decStart, decRun, decStats = simulate(decoded)
			}
			if errText(absStart) != errText(decStart) || errText(absRun) != errText(decRun) || !reflect.DeepEqual(absStats, decStats) {
				t.Fatalf("start %v, run %v; from its JSON: start %v, run %v; stats equal: %v",
					absStart, absRun, decStart, decRun, reflect.DeepEqual(absStats, decStats))
			}
		}
		if absStart != nil {
			return
		}
		if absRun == nil {
			for i, b := range absStats.PerNPU {
				if b.Total() != absStats.Makespan {
					t.Fatalf("npu %d: breakdown adds up to %v, makespan %v", i, b.Total(), absStats.Makespan)
				}
			}
		}
		if trace.Iterations > 1 && smallIDsAndTags(trace) {
			unStart, unRun, unStats := simulate(unroll(trace, trace.Iterations))
			if unStart != nil || (absRun == nil) != (unRun == nil) || !reflect.DeepEqual(absStats, unStats) {
				t.Fatalf("%d native iterations: %v; unrolled: start %v, run %v; stats equal: %v",
					trace.Iterations, absRun, unStart, unRun, reflect.DeepEqual(absStats, unStats))
			}
		}
	})
}

// smallIDsAndTags reports whether every node ID and P2P tag of tr lies
// within 2^20 of zero.
func smallIDsAndTags(tr *et.Trace) bool {
	const limit = 1 << 20
	for _, g := range tr.Graphs {
		for _, n := range g.Nodes {
			if n.ID < -limit || n.ID > limit || n.Tag < -limit || n.Tag > limit {
				return false
			}
		}
	}
	return true
}

// errText is err's text, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
