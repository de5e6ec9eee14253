package scenario

import (
	"strings"
	"testing"

	"repro/internal/units"
)

func TestKindRoundTrip(t *testing.T) {
	for k := DegradeLink; k <= StraggleNPU; k++ {
		parsed, err := ParseKind(k.String())
		if err != nil {
			t.Errorf("ParseKind(%q): %v", k.String(), err)
		}
		if parsed != k {
			t.Errorf("round trip %v -> %q -> %v", k, k.String(), parsed)
		}
	}
	if _, err := ParseKind("explode"); err == nil {
		t.Error("unknown kind accepted")
	}
	if s := Kind(99).String(); !strings.Contains(s, "99") {
		t.Errorf("out-of-range String = %q", s)
	}
}

func TestValidate(t *testing.T) {
	const npus, dims = 16, 2
	ok := Scenario{Name: "ok", Events: []Event{
		{Kind: DegradeLink, Dim: 1, Factor: 0.25},
		{Kind: RestoreLink, At: units.Microsecond, Dim: 1},
		{Kind: FailLink, Dim: 0, Recovery: units.Microsecond},
		{Kind: FailNPU, NPU: 15, Recovery: units.Microsecond},
		{Kind: StraggleNPU, NPU: 0, Factor: 1.3},
	}}
	if err := ok.Validate(npus, dims); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}

	bad := []Event{
		{Kind: DegradeLink, At: -1, Factor: 0.5},
		{Kind: DegradeLink, Dim: 2, Factor: 0.5},
		{Kind: DegradeLink, Dim: -1, Factor: 0.5},
		{Kind: DegradeLink, Factor: 0},
		{Kind: RestoreLink, Dim: 5},
		{Kind: FailLink, Dim: 0, Recovery: -units.Microsecond},
		{Kind: FailNPU, NPU: 16, Recovery: units.Microsecond},
		{Kind: FailNPU, NPU: 3},
		{Kind: StraggleNPU, NPU: -2, Factor: 2},
		{Kind: StraggleNPU, NPU: 1},
		{Kind: Kind(42)},
		// Fields a kind does not use must not be negative either.
		{Kind: StraggleNPU, NPU: 0, Factor: 2, Dim: -1},
		{Kind: FailNPU, NPU: 1, Recovery: units.Microsecond, Factor: -1},
		{Kind: RestoreLink, Dim: 1, NPU: -1},
		{Kind: FailLink, Dim: 1, Factor: -0.5},
	}
	for i, ev := range bad {
		s := Scenario{Name: "bad", Events: []Event{ev}}
		if err := s.Validate(npus, dims); err == nil {
			t.Errorf("case %d: invalid event accepted: %+v", i, ev)
		}
	}
}
