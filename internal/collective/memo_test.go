package collective

import (
	"testing"

	"repro/internal/network"
	"repro/internal/timeline"
	"repro/internal/topology"
	"repro/internal/units"
)

func memoTestTopology() *topology.Topology {
	return topology.MustNew(
		topology.Dim{Kind: topology.Ring, Size: 4, Bandwidth: units.GBps(250), Latency: 50 * units.Nanosecond},
		topology.Dim{Kind: topology.Switch, Size: 4, Bandwidth: units.GBps(50), Latency: 2 * units.Microsecond},
	)
}

// memoRig builds the machine every memo test drives: memoTestTopology on a
// fresh engine and backend, and an 8-chunk collective engine that
// memoizes through memo when it is non-nil.
func memoRig(memo *Memo) (*topology.Topology, *timeline.Engine, *network.Backend, *Engine) {
	top := memoTestTopology()
	eng := timeline.New()
	net := network.NewBackend(eng, top)
	opts := []Option{WithChunks(8)}
	if memo != nil {
		opts = append(opts, WithMemo(memo))
	}
	return top, eng, net, NewEngine(net, opts...)
}

// runChain executes n back-to-back identical All-Reduces (each launched from
// the previous one's completion callback, the shape a training loop or a
// sweep re-evaluation produces) and returns the per-collective results plus
// the engine's final clock and event count.
func runChain(t *testing.T, n int, memo *Memo) ([]Result, units.Time, uint64) {
	t.Helper()
	top, eng, _, ce := memoRig(memo)
	var results []Result
	var launch func()
	launch = func() {
		err := ce.Start(AllReduce, 4*units.MB, FullMachine(top), nil, func(r Result) {
			results = append(results, r)
			if len(results) < n {
				launch()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	launch()
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(results) != n {
		t.Fatalf("completed %d collectives, want %d", len(results), n)
	}
	return results, eng.Now(), eng.Fired()
}

func sameResult(a, b Result) bool {
	if a.Op != b.Op || a.Size != b.Size || a.Start != b.Start || a.End != b.End || a.Chunks != b.Chunks {
		return false
	}
	if len(a.TrafficPerDim) != len(b.TrafficPerDim) {
		return false
	}
	for d := range a.TrafficPerDim {
		if a.TrafficPerDim[d] != b.TrafficPerDim[d] {
			return false
		}
	}
	return true
}

// TestMemoHitsAndByteIdentity locks in the memoization contract: repeated
// identical collectives on a quiet machine replay from the cache (n-1 hits
// after the first miss), and every observable — per-collective results, the
// final clock, and the fired-event count — matches a memo-less run exactly.
func TestMemoHitsAndByteIdentity(t *testing.T) {
	const n = 5
	plain, plainEnd, plainFired := runChain(t, n, nil)
	memo := NewMemo()
	memoed, memoEnd, memoFired := runChain(t, n, memo)

	if memoEnd != plainEnd {
		t.Errorf("final clock diverged: memo %v, plain %v", memoEnd, plainEnd)
	}
	if memoFired != plainFired {
		t.Errorf("fired-event count diverged: memo %d, plain %d", memoFired, plainFired)
	}
	for i := range plain {
		if !sameResult(memoed[i], plain[i]) {
			t.Errorf("collective %d diverged: memo %+v, plain %+v", i, memoed[i], plain[i])
		}
	}
	hits, misses, entries := memo.Stats()
	if hits != n-1 || misses != 1 || entries != 1 {
		t.Errorf("Stats = (%d hits, %d misses, %d entries), want (%d, 1, 1)", hits, misses, entries, n-1)
	}

	// The table is content-addressed across engines: a fresh engine over an
	// identical machine hits the warm entry on its very first collective.
	fresh, freshEnd, freshFired := runChain(t, 1, memo)
	if freshEnd != plain[0].End || freshFired == 0 || !sameResult(fresh[0], plain[0]) {
		t.Errorf("cross-engine replay diverged: %+v, want %+v", fresh[0], plain[0])
	}
	if hits2, _, _ := memo.Stats(); hits2 != hits+1 {
		t.Errorf("cross-engine run recorded %d hits, want %d", hits2, hits+1)
	}
}

// TestMemoRollbackOnObservation drives the unconditional-correctness path:
// a replay is armed from a warm memo, then foreign traffic observes the
// network at the same instant. The replay must roll back and re-run live,
// so the output stays byte-identical to a memo-less engine under the same
// interference.
func TestMemoRollbackOnObservation(t *testing.T) {
	memo := NewMemo()
	runChain(t, 1, memo) // warm the table on a quiet machine

	run := func(m *Memo) (Result, units.Time, units.Time) {
		top, eng, net, ce := memoRig(m)
		var res Result
		if err := ce.Start(AllReduce, 4*units.MB, FullMachine(top), nil, func(r Result) { res = r }); err != nil {
			t.Fatal(err)
		}
		// Foreign point-to-point traffic sharing the collective's links:
		// the memo entry was recorded on a quiet machine, so replaying it
		// here would be wrong — the backend observation must cancel it.
		var recvAt units.Time
		net.SimRecv(0, 1, 7, 2*units.MB, func(network.Message) { recvAt = eng.Now() })
		net.SimSend(0, 1, 7, 2*units.MB, nil)
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return res, eng.Now(), recvAt
	}

	plainRes, plainEnd, plainRecv := run(nil)
	memoRes, memoEnd, memoRecv := run(memo)
	if !sameResult(memoRes, plainRes) || memoEnd != plainEnd || memoRecv != plainRecv {
		t.Errorf("rollback output diverged: memo (%+v end=%v recv=%v), plain (%+v end=%v recv=%v)",
			memoRes, memoEnd, memoRecv, plainRes, plainEnd, plainRecv)
	}
	// The quiet entry must survive the rollback untouched and keep serving
	// quiet engines.
	quiet, _, _ := runChain(t, 1, memo)
	base, _, _ := runChain(t, 1, nil)
	if !sameResult(quiet[0], base[0]) {
		t.Errorf("entry corrupted by rollback: %+v, want %+v", quiet[0], base[0])
	}
}
