package collective

import (
	"fmt"
	"testing"

	"repro/internal/network"
	"repro/internal/timeline"
	"repro/internal/topology"
	"repro/internal/units"
)

// runMessageLevelOnce plays op's message-level schedule over the whole
// machine on a fresh analytical network and returns its completion time.
func runMessageLevelOnce(t *testing.T, top *topology.Topology, op Op, size units.ByteSize) units.Time {
	t.Helper()
	steps, err := MessageSchedule(top, op, size, FullMachine(top))
	if err != nil {
		t.Fatal(err)
	}
	eng := timeline.New()
	var end units.Time
	RunMessageLevel(network.NewBackend(eng, top), steps, func(at units.Time) { end = at })
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if end == 0 {
		t.Fatal("message-level time is zero")
	}
	return end
}

// MessageSchedule refuses exactly what Engine.Start refuses (start) and
// what CheckSpans rejects (spans), on R(4)_R(2). Start is run where it
// refuses before reading the spans, or where CheckSpans accepts them.
func TestMessageScheduleRefusesWhatStartRefuses(t *testing.T) {
	top := topology.MustNew(ringDim(4, 100, 0), ringDim(2, 100, 0))
	full := FullMachine(top)
	pair := func(phys, k, stride, base int) Group {
		return Group{Spans: []Span{{Phys: phys, K: k, Stride: stride}}, Base: base}
	}
	cases := []struct {
		name         string
		op           Op
		size         units.ByteSize
		g            Group
		start, spans bool
	}{
		{"valid", AllReduce, 1024, full, false, false},
		{"zero size", AllReduce, 0, full, true, false},
		{"negative size", ReduceScatter, -8, full, true, false},
		{"no spans", AllReduce, 1024, Group{}, true, true},
		{"one member", AllReduce, 1024, pair(0, 1, 1, 0), true, true},
		{"empty all-gather shard", AllGather, 7, full, true, false},
		{"one byte per member", AllGather, 8, full, false, false},
		{"reduce-scatter below a byte per member", ReduceScatter, 7, full, false, false},
		{"all-to-all below a byte per member", AllToAll, 7, full, false, false},
		{"dim out of range", AllReduce, 1024, pair(2, 2, 1, 0), false, true},
		{"K past the dim", AllReduce, 1024, pair(1, 3, 1, 0), false, true},
		{"base out of range", AllReduce, 1024, pair(0, 2, 1, 8), false, true},
		{"overlapping spans", AllReduce, 1024, Group{Spans: []Span{{Phys: 0, K: 2, Stride: 1}, {Phys: 0, K: 2, Stride: 1}}}, false, true},
		{"reach past the edge", AllReduce, 1024, pair(0, 2, 3, 1), false, true},
		{"strided pair", AllReduce, 1024, pair(0, 2, 2, 1), false, false},
		{"nested spans", AllGather, 1024, Group{Spans: []Span{{Phys: 0, K: 2, Stride: 2}, {Phys: 1, K: 2, Stride: 1}, {Phys: 0, K: 2, Stride: 1}}}, false, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := CheckSpans(top, c.g.Spans, c.g.Base); (err != nil) != c.spans {
				t.Errorf("CheckSpans: %v, want refused %v", err, c.spans)
			}
			if c.start || !c.spans {
				eng := timeline.New()
				err := NewEngine(network.NewBackend(eng, top)).Start(c.op, c.size, c.g, nil, nil)
				if (err != nil) != c.start {
					t.Errorf("Engine.Start: %v, want refused %v", err, c.start)
				}
			}
			steps, err := MessageSchedule(top, c.op, c.size, c.g)
			if (err != nil) != (c.start || c.spans) {
				t.Errorf("MessageSchedule: %d steps, error %v; want refused %v", len(steps), err, c.start || c.spans)
			}
		})
	}
}

// On every instance of every valid layout TestCheckSpansMatchesMembers
// enumerates, strided and nested spans included, each op's schedule only
// joins two distinct members of the group that differ only in the step's
// dimension, and every member sends once in each ring step (K-1 times in
// an All-to-All's direct step). The steps number sum(K-1) per pass, two
// passes for All-Reduce, and one per span for All-to-All.
func TestMessageScheduleOnEveryLayout(t *testing.T) {
	ops := []Op{ReduceScatter, AllGather, AllReduce, AllToAll}
	schedules := 0
	for _, top := range layoutMachines() {
		for _, spans := range spanLayouts(top) {
			for base := 0; base < top.NumNPUs(); base++ {
				g := Group{Spans: spans, Base: base}
				if CheckSpans(top, spans, base) != nil || g.Origin(top) != base {
					continue // one base per instance
				}
				member := map[int]bool{}
				for _, m := range g.Members(top) {
					member[m] = true
				}
				for _, op := range ops {
					if desc := checkSchedule(top, op, g, member); desc != "" {
						t.Fatalf("%v from base %d on %v, %v: %s", spans, base, top, op, desc)
					}
					schedules++
				}
			}
		}
	}
	if schedules == 0 {
		t.Fatal("no valid layout")
	}
}

// checkSchedule describes how op's schedule over g breaks
// TestMessageScheduleOnEveryLayout's properties, or returns "".
func checkSchedule(top *topology.Topology, op Op, g Group, member map[int]bool) string {
	steps, err := MessageSchedule(top, op, 1<<20, g)
	if err != nil {
		return err.Error()
	}
	var sends []int // per step, the sends each member makes
	for _, sp := range g.Spans {
		if op == AllToAll {
			sends = append(sends, sp.K-1)
			continue
		}
		for s := 1; s < sp.K; s++ {
			sends = append(sends, 1)
		}
	}
	if op == AllReduce {
		sends = append(sends, sends...)
	}
	if len(steps) != len(sends) {
		return fmt.Sprintf("%d steps, want %d", len(steps), len(sends))
	}
	for i, st := range steps {
		sent := map[int]int{}
		for _, x := range st.Xfers {
			if !member[x.Src] || !member[x.Dst] || x.Src == x.Dst {
				return fmt.Sprintf("step %d sends %d -> %d outside the group's distinct members", i, x.Src, x.Dst)
			}
			w := top.WalkPositions(x.Src, x.Dst)
			for d, sp, dp, ok := w.Next(); ok; d, sp, dp, ok = w.Next() {
				if d != st.Dim && sp != dp {
					return fmt.Sprintf("step %d on dim %d sends %d -> %d, which differ in dim %d", i, st.Dim, x.Src, x.Dst, d)
				}
			}
			sent[x.Src]++
		}
		for m := range member {
			if sent[m] != sends[i] {
				return fmt.Sprintf("member %d sends %d times in step %d, want %d", m, sent[m], i, sends[i])
			}
		}
	}
	return ""
}
