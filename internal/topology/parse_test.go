package topology

import (
	"testing"

	"repro/internal/units"
)

// TestParsePaperExamples parses every example topology of Fig. 3(c).
func TestParsePaperExamples(t *testing.T) {
	cases := []struct {
		spec  string
		kinds []DimModel
		sizes []int
		npus  int
	}{
		// 2D examples.
		{"R(4)_R(2)", []DimModel{Ring, Ring}, []int{4, 2}, 8},               // TPUv2/v3 torus
		{"SW(3)_SW(2)", []DimModel{Switch, Switch}, []int{3, 2}, 6},         // DGX-2 / DGX-A100
		{"FC(4)_SW(2)", []DimModel{FullyConnected, Switch}, []int{4, 2}, 8}, // Intel Habana
		{"R(4)_SW(2)", []DimModel{Ring, Switch}, []int{4, 2}, 8},            // Meta Zion / DGX-1
		// 3D examples.
		{"FC(4)_FC(2)_FC(2)", []DimModel{FullyConnected, FullyConnected, FullyConnected}, []int{4, 2, 2}, 16}, // DragonFly
		{"R(4)_R(2)_R(2)", []DimModel{Ring, Ring, Ring}, []int{4, 2, 2}, 16},                                  // TPUv4 3D torus
	}
	for _, c := range cases {
		top, err := Parse(c.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.spec, err)
		}
		if top.NumNPUs() != c.npus {
			t.Errorf("%q: NumNPUs = %d, want %d", c.spec, top.NumNPUs(), c.npus)
		}
		for i, d := range top.Dims {
			if d.Kind != c.kinds[i] || d.Size != c.sizes[i] {
				t.Errorf("%q dim %d = %v(%d), want %v(%d)", c.spec, i+1, d.Kind, d.Size, c.kinds[i], c.sizes[i])
			}
		}
	}
}

func TestParseLongNames(t *testing.T) {
	top, err := Parse("Ring(4)_FullyConnected(2)_Switch(2)")
	if err != nil {
		t.Fatal(err)
	}
	if top.String() != "R(4)_FC(2)_SW(2)" {
		t.Errorf("canonical form = %q", top.String())
	}
}

func TestParseCaseInsensitive(t *testing.T) {
	if _, err := Parse("ring(4)_fc(2)_sw(2)"); err != nil {
		t.Errorf("case-insensitive parse failed: %v", err)
	}
}

func TestParseRoundTrip(t *testing.T) {
	specs := []string{"R(4)_R(2)", "SW(3)_SW(2)", "FC(4)_FC(2)_FC(2)", "R(2)_FC(8)_R(8)_SW(4)"}
	for _, s := range specs {
		top, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		again, err := Parse(top.String())
		if err != nil {
			t.Fatalf("reparse(%q): %v", top.String(), err)
		}
		if again.String() != top.String() {
			t.Errorf("round trip %q -> %q -> %q", s, top.String(), again.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"R4",
		"R(4",
		"R()",
		"R(one)",
		"R(1)",         // k < 2
		"Hypercube(4)", // unknown block
		"R(4)__SW(2)",  // empty segment
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestParseWithBandwidth(t *testing.T) {
	// Conv-4D from Table II: 2x8x8x4 with 250/200/100/50 GB/s.
	top, err := ParseWithBandwidth("R(2)_FC(8)_R(8)_SW(4)", []float64{250, 200, 100, 50}, 700*units.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if top.NumNPUs() != 512 {
		t.Errorf("NumNPUs = %d, want 512", top.NumNPUs())
	}
	if top.Dims[0].Bandwidth != units.GBps(250) || top.Dims[3].Bandwidth != units.GBps(50) {
		t.Errorf("bandwidths not assigned positionally: %+v", top.Dims)
	}
	for i, d := range top.Dims {
		if d.Latency != 700*units.Nanosecond {
			t.Errorf("dim %d latency = %v", i+1, d.Latency)
		}
	}
}

func TestParseWithBandwidthArityMismatch(t *testing.T) {
	if _, err := ParseWithBandwidth("R(2)_R(2)", []float64{100}, 0); err == nil {
		t.Error("expected arity mismatch error")
	}
	if _, err := ParseWithBandwidth("R(2)", []float64{-1}, 0); err == nil {
		t.Error("expected negative bandwidth error")
	}
}
