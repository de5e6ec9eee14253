package collective

import (
	"testing"

	"repro/internal/units"
)

// Probe: foreign traffic that first observes the backend at a LATER
// simulated instant than the replay's start. Live baseline vs memo run.
func TestMemoDeferredObservationProbe(t *testing.T) {
	memo := NewMemo()
	runChain(t, 1, memo) // warm

	run := func(m *Memo) (Result, units.Time) {
		top, eng, net, ce := memoRig(m)
		var res Result
		if err := ce.Start(AllReduce, 4*units.MB, FullMachine(top), nil, func(r Result) { res = r }); err != nil {
			t.Fatal(err)
		}
		// Foreign send at t=10us, well before the collective completes.
		eng.Schedule(10*units.Microsecond, func() {
			net.SimSend(0, 1, 7, 2*units.MB, nil)
		})
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return res, eng.Now()
	}

	plainRes, plainEnd := run(nil)
	memoRes, memoEnd := run(memo)
	t.Logf("plain: start=%v end=%v finalclock=%v", plainRes.Start, plainRes.End, plainEnd)
	t.Logf("memo:  start=%v end=%v finalclock=%v", memoRes.Start, memoRes.End, memoEnd)
	if !sameResult(memoRes, plainRes) || memoEnd != plainEnd {
		t.Errorf("DIVERGED")
	}
}
