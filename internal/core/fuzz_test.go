package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
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
		// the one before on one tag, so sharing equal lists gives every
		// rank the same list; then the same ring with one size mismatch.
		ringSeed(4096),
		ringSeed(8192),
		// ET: every rank runs one chain, a whole-machine All-Reduce, then
		// a pairwise All-Gather and a remote load, so the shared trace
		// folds onto one rank; the same with the two collectives issued at
		// once, which does not fold; and two lists, one for ranks 0-1 and
		// one for ranks 2-3, with whole-machine collectives only, which
		// fold onto ranks 0 and 2 on R(2)_SW(2).
		blockSeed(4, 4, `{"id":1,"kind":"COMP","flops":1e9},`+
			`{"id":2,"kind":"COMM_COLL","deps":[1],"collective":"ALL_REDUCE","comm_bytes":65536},`+
			`{"id":3,"kind":"COMM_COLL","deps":[2],"collective":"ALL_GATHER","comm_bytes":4096,"group":{"spans":[{"phys":0,"k":2,"stride":1}]}},`+
			`{"id":4,"kind":"MEM","deps":[3],"mem_op":"LOAD","mem_location":"REMOTE","tensor_bytes":1024}`),
		blockSeed(4, 4, `{"id":1,"kind":"COMP","flops":1e9},`+
			`{"id":2,"kind":"COMM_COLL","deps":[1],"collective":"ALL_REDUCE","comm_bytes":65536},`+
			`{"id":3,"kind":"COMM_COLL","deps":[1],"collective":"ALL_GATHER","comm_bytes":4096,"group":{"spans":[{"phys":0,"k":2,"stride":1}]}}`),
		blockSeed(4, 2, `{"id":1,"kind":"COMP","flops":1e9},`+
			`{"id":2,"kind":"COMM_COLL","deps":[1],"collective":"ALL_TO_ALL","comm_bytes":65536},`+
			`{"id":3,"kind":"COMM_COLL","deps":[1],"collective":"REDUCE_SCATTER","comm_bytes":4096,"in_switch":true}`),
	}
}

// blockSeed is an ET document of n NPUs in which each block of block ranks
// runs the nodes given, with the first node's FLOPs scaled by the block's
// index plus one.
func blockSeed(n, block int, nodes string) string {
	doc := fmt.Sprintf(`{"name":"blocks","num_npus":%d,"graphs":[`, n)
	for r := 0; r < n; r++ {
		if r > 0 {
			doc += ","
		}
		list := strings.Replace(nodes, `"flops":1e9`, fmt.Sprintf(`"flops":%de9`, r/block+1), 1)
		doc += fmt.Sprintf(`{"npu":%d,"nodes":[%s]}`, r, list)
	}
	return doc + "]}"
}

// peerSeed is a FuzzRunTrace seed whose JSON peer sits at one end of int,
// and the error it decodes to.
type peerSeed struct {
	doc     string
	pytorch bool // a PARAM PyTorch graph, read through convert
	want    string
}

// peerSeeds put JSON peers at both ends of int on rank 1. Turning the rank
// into an offset subtracts 1, which wraps the lowest int around to the
// highest, and the out-of-range report adds it back, so it names the JSON
// value: the wraparound is harmless.
func peerSeeds() []peerSeed {
	const lowest, highest = "-9223372036854775808", "9223372036854775807"
	etDoc := func(kind, peer string) string {
		return `{"num_npus":2,"graphs":[{"npu":0,"nodes":[]},{"npu":1,"nodes":[` +
			`{"id":1,"kind":"` + kind + `","peer":` + peer + `,"comm_bytes":8}]}]}`
	}
	return []peerSeed{
		{etDoc("COMM_SEND", lowest), false, "et: npu 1 sends to out-of-range peer " + lowest},
		{etDoc("COMM_RECV", highest), false, "et: npu 1 receives from out-of-range peer " + highest},
		{`{"num_npus":2,"graphs":[{"rank":0,"nodes":[]},{"rank":1,"nodes":[` +
			`{"id":1,"name":"nccl:recv","attrs":{"comm_bytes":8,"peer":` + lowest + `}}]}]}`,
			true, "convert: converted trace invalid: et: npu 1 receives from out-of-range peer " + lowest},
	}
}

// The peer seeds report the peer their JSON holds.
func TestPeerSeedsNameTheJSONPeer(t *testing.T) {
	for _, s := range peerSeeds() {
		var err error
		if s.pytorch {
			var src *convert.PyTorchTrace
			if src, err = convert.DecodePyTorch(strings.NewReader(s.doc)); err == nil {
				_, err = convert.Convert(src)
			}
		} else {
			_, err = et.Decode(strings.NewReader(s.doc))
		}
		if errText(err) != s.want {
			t.Errorf("%s: got %v, want %q", s.doc, err, s.want)
		}
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
// runs for one to three iterations on SW(n), or for some inputs with an
// even n > 2 on R(2)_SW(n/2), with a hierarchical memory pool, transit
// charging and an event budget. Start, Run and Finalize may
// return errors but must never panic.
//
// Each trace also runs with its equal lists shared (share), as a
// generated trace's ranks share them. That form must encode to the same
// bytes, fail Start exactly when the trace does and with the same error,
// and past Start give the same errors and RunStats. Both run unfolded:
// only shared lists can fold.
//
// Four oracles check the results:
//   - in a finished run, every NPU's breakdown adds up to the makespan;
//   - a trace that starts runs its iterations exactly as its unrolled
//     reference (unroll) does, with the same RunStats, and fails exactly
//     when it does, if every node ID and tag is within 2^20 of zero, so
//     that unrolling cannot overflow;
//   - the trace's JSON, decoded again and given the same iteration count,
//     fails to decode with the trace's Start error, or gives the same Start
//     error, or the same run errors and RunStats;
//   - the shared trace, folded where it can fold, gives the same errors
//     and RunStats as unfolded, but for the events fired and the ranks
//     simulated, unless the unfolded run spent its event budget.
func FuzzRunTrace(f *testing.F) {
	for _, s := range fuzzTraceSeeds() {
		f.Add([]byte(s))
	}
	for _, s := range peerSeeds() {
		f.Add([]byte(s.doc))
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
		shared := share(trace)
		var enc, sharedEnc bytes.Buffer
		encErr, sharedErr := trace.Encode(&enc), shared.Encode(&sharedEnc)
		if errText(encErr) != errText(sharedErr) || !bytes.Equal(enc.Bytes(), sharedEnc.Bytes()) {
			t.Fatalf("shared trace encodes differently: %v vs %v\n%s\n%s", encErr, sharedErr, enc.Bytes(), sharedEnc.Bytes())
		}
		dims := []topology.Dim{{Kind: topology.Switch, Size: n, Bandwidth: units.GBps(100), Latency: 500 * units.Nanosecond}}
		if len(doc)/3%2 == 1 && n%2 == 0 && n > 2 {
			// Blocks of two ranks that run different plans can fold.
			dims = []topology.Dim{
				{Kind: topology.Ring, Size: 2, Bandwidth: units.GBps(200), Latency: 500 * units.Nanosecond},
				{Kind: topology.Switch, Size: n / 2, Bandwidth: units.GBps(100), Latency: 500 * units.Nanosecond},
			}
		}
		top, err := topology.New(dims...)
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
		// simulate returns Start's error, or the run's and Finalize's, and
		// whether the run spent its event budget; with unfolded set it
		// simulates every rank.
		const budget = 1 << 16
		spent := false
		simulate := func(tr *et.Trace, unfolded bool) (startErr, runErr error, stats *RunStats) {
			eng := timeline.New()
			eng.SetEventBudget(budget)
			sim, err := NewSimulatorOn(eng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sim.unfolded = unfolded
			if err := sim.Start(tr, 0); err != nil {
				return err, nil, nil
			}
			_, runErr = eng.Run()
			spent = eng.Fired() >= budget
			stats, err = sim.Finalize()
			return nil, errors.Join(runErr, err), stats
		}
		start, runErr, stats := simulate(trace, true)
		sharedStart, sharedRun, sharedStats := simulate(shared, true)
		if sharedSpent := spent; !sharedSpent {
			foldStart, foldRun, foldStats := simulate(shared, false)
			// The folded run fires fewer events, so it may finish where
			// the unfolded one ran out of budget.
			if errText(sharedStart) != errText(foldStart) || errText(sharedRun) != errText(foldRun) ||
				!reflect.DeepEqual(withoutEvents(sharedStats), withoutEvents(foldStats)) {
				t.Fatalf("folded run: start %v, run %v; unfolded: start %v, run %v; stats equal but for events: %v",
					foldStart, foldRun, sharedStart, sharedRun, reflect.DeepEqual(withoutEvents(sharedStats), withoutEvents(foldStats)))
			}
		}
		if errText(start) != errText(sharedStart) {
			t.Fatalf("Start: %v, but %v for the shared trace", start, sharedStart)
		}
		if errText(runErr) != errText(sharedRun) || !reflect.DeepEqual(stats, sharedStats) {
			t.Fatalf("run: %v, but %v for the shared trace; stats equal: %v", runErr, sharedRun, reflect.DeepEqual(stats, sharedStats))
		}
		if encErr == nil {
			var decStart, decRun error
			var decStats *RunStats
			decoded, err := et.Decode(&enc)
			if err != nil {
				decStart = err
			} else {
				decoded.Iterations = trace.Iterations
				decStart, decRun, decStats = simulate(decoded, true)
			}
			if errText(start) != errText(decStart) || errText(runErr) != errText(decRun) || !reflect.DeepEqual(stats, decStats) {
				t.Fatalf("start %v, run %v; from its JSON: start %v, run %v; stats equal: %v",
					start, runErr, decStart, decRun, reflect.DeepEqual(stats, decStats))
			}
		}
		if start != nil {
			return
		}
		if runErr == nil {
			for i, b := range stats.PerNPU {
				if b.Total() != stats.Makespan {
					t.Fatalf("npu %d: breakdown adds up to %v, makespan %v", i, b.Total(), stats.Makespan)
				}
			}
		}
		if trace.Iterations > 1 && smallIDsAndTags(trace) {
			unStart, unRun, unStats := simulate(unroll(trace, trace.Iterations), true)
			if unStart != nil || (runErr == nil) != (unRun == nil) || !reflect.DeepEqual(stats, unStats) {
				t.Fatalf("%d native iterations: %v; unrolled: start %v, run %v; stats equal: %v",
					trace.Iterations, runErr, unStart, unRun, reflect.DeepEqual(stats, unStats))
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
