package collective

import (
	"testing"

	"repro/internal/network"
	"repro/internal/timeline"
	"repro/internal/units"
)

// runProbeRun executes one memoizable All-Reduce with foreign probe traffic
// around it: an optional pre-start send (posted before the collective, so a
// replay must never arm) and a set of deferred sends scheduled at the given
// delays after the collective starts. It returns the collective's result,
// the engine's final clock and its fired-event count — the three
// observables the byte-identity contract covers.
func runProbeRun(t *testing.T, m *Memo, preStart bool, probes []units.Time) (Result, units.Time, uint64) {
	t.Helper()
	top, eng, net, ce := memoRig(m)
	if preStart {
		net.SimRecv(0, 1, 9, units.MB, func(network.Message) {})
		net.SimSend(0, 1, 9, units.MB, nil)
	}
	var res Result
	if err := ce.Start(AllReduce, 4*units.MB, FullMachine(top), nil, func(r Result) { res = r }); err != nil {
		t.Fatal(err)
	}
	for _, d := range probes {
		d := d
		eng.Schedule(d, func() { net.SimSend(0, 1, 7, 2*units.MB, nil) })
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return res, eng.Now(), eng.Fired()
}

// TestMemoRollbackTimingMatrix locks in rollback correctness across the
// whole probe-timing spectrum — before the replay starts, mid-replay,
// exactly at the cached end instant, after the window (where the replay
// must SURVIVE), and several probes at once. Every cell must be
// byte-identical to the equivalent memo-free run: same result, same final
// clock, same fired-event total.
func TestMemoRollbackTimingMatrix(t *testing.T) {
	plain, _, _ := runChain(t, 1, nil)
	dur := plain[0].End - plain[0].Start // the cached entry's duration

	cases := []struct {
		name     string
		preStart bool
		probes   []units.Time
	}{
		{"probe_before_start", true, nil},
		{"probe_mid_replay", false, []units.Time{10 * units.Microsecond}},
		{"probe_at_cached_end", false, []units.Time{dur}},
		{"probe_after_cached_end", false, []units.Time{dur + units.Microsecond}},
		{"multiple_probes", false, []units.Time{5 * units.Microsecond, 15 * units.Microsecond, dur}},
	}
	memo := NewMemo()
	runChain(t, 1, memo) // warm the table on a quiet machine
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pRes, pEnd, pFired := runProbeRun(t, nil, tc.preStart, tc.probes)
			mRes, mEnd, mFired := runProbeRun(t, memo, tc.preStart, tc.probes)
			if !sameResult(mRes, pRes) {
				t.Errorf("result diverged: memo %+v, plain %+v", mRes, pRes)
			}
			if mEnd != pEnd {
				t.Errorf("final clock diverged: memo %v, plain %v", mEnd, pEnd)
			}
			if mFired != pFired {
				t.Errorf("fired-event count diverged: memo %d, plain %d", mFired, pFired)
			}
		})
	}
}

// TestMemoTwoEnginesSharedBackend drives the hook-registry audit: two
// collective engines over ONE backend both start a memoizable collective at
// the same instant. The first arms a replay; the second is ineligible (the
// queue is not empty) and runs live, and its very first backend observation
// must cancel the first engine's replay without either engine clobbering
// the other's armed hook. Output must match two memo-free engines exactly.
func TestMemoTwoEnginesSharedBackend(t *testing.T) {
	memo := NewMemo()
	runChain(t, 1, memo) // warm the table on a quiet machine

	run := func(m *Memo) ([2]Result, units.Time, uint64) {
		top := memoTestTopology()
		eng := timeline.New()
		net := network.NewBackend(eng, top)
		mk := func() *Engine {
			opts := []Option{WithChunks(8)}
			if m != nil {
				opts = append(opts, WithMemo(m))
			}
			return NewEngine(net, opts...)
		}
		a, b := mk(), mk()
		var out [2]Result
		if err := a.Start(AllReduce, 4*units.MB, FullMachine(top), nil, func(r Result) { out[0] = r }); err != nil {
			t.Fatal(err)
		}
		if err := b.Start(AllReduce, 4*units.MB, FullMachine(top), nil, func(r Result) { out[1] = r }); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return out, eng.Now(), eng.Fired()
	}

	plain, pEnd, pFired := run(nil)
	memoed, mEnd, mFired := run(memo)
	for i := range plain {
		if !sameResult(memoed[i], plain[i]) {
			t.Errorf("engine %d result diverged: memo %+v, plain %+v", i, memoed[i], plain[i])
		}
	}
	if mEnd != pEnd {
		t.Errorf("final clock diverged: memo %v, plain %v", mEnd, pEnd)
	}
	if mFired != pFired {
		t.Errorf("fired-event count diverged: memo %d, plain %d", mFired, pFired)
	}
}

// TestMemoChainedReplayWithLateProbe exercises disarm-on-completion: the
// first collective replays to completion, its done callback chains a second
// replay, and a probe then lands inside the SECOND replay's window. Only
// the second replay must roll back; the totals must match memo-free.
func TestMemoChainedReplayWithLateProbe(t *testing.T) {
	memo := NewMemo()
	runChain(t, 1, memo)

	run := func(m *Memo) ([]Result, units.Time, uint64) {
		top, eng, net, ce := memoRig(m)
		var results []Result
		var probe units.Time
		if err := ce.Start(AllReduce, 4*units.MB, FullMachine(top), nil, func(r Result) {
			results = append(results, r)
			if len(results) == 1 {
				// Chain the second collective and aim a probe at the
				// middle of its span.
				probe = (r.End - r.Start) / 2
				if err := ce.Start(AllReduce, 4*units.MB, FullMachine(top), nil, func(r2 Result) {
					results = append(results, r2)
				}); err != nil {
					t.Error(err)
				}
				eng.Schedule(probe, func() { net.SimSend(0, 1, 7, 2*units.MB, nil) })
			}
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return results, eng.Now(), eng.Fired()
	}

	plain, pEnd, pFired := run(nil)
	memoed, mEnd, mFired := run(memo)
	if len(plain) != 2 || len(memoed) != 2 {
		t.Fatalf("completed %d/%d collectives, want 2/2", len(plain), len(memoed))
	}
	for i := range plain {
		if !sameResult(memoed[i], plain[i]) {
			t.Errorf("collective %d diverged: memo %+v, plain %+v", i, memoed[i], plain[i])
		}
	}
	if mEnd != pEnd || mFired != pFired {
		t.Errorf("totals diverged: memo (end=%v fired=%d), plain (end=%v fired=%d)", mEnd, mFired, pEnd, pFired)
	}
}
