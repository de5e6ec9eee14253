package topology

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/units"
)

// Parse builds a Topology from the paper's shape notation, e.g.
//
//	"Ring(4)_Ring(2)"            (Google TPUv2/v3)
//	"SW(3)_SW(2)"                (NVIDIA DGX-2 / DGX-A100 style)
//	"FC(4)_FC(2)_FC(2)"          (fully-populated DragonFly)
//	"R(4)_FC(2)_SW(2)"
//	"T2D(4,4)_SW(8)"             (TPU-style 2D torus pods under a switch)
//	"M(8)_SW(16,4)"              (NoC mesh under a 4:1 tapered switch)
//
// Block names are case-insensitive and resolved through the block table;
// both short (R, FC, SW, M, T2D) and long (Ring, FullyConnected, Switch,
// Mesh, Torus2D) spellings are listed. Multi-argument blocks take
// comma-separated arguments: Torus2D(a,b) spans a*b NPUs, SW(k,o) is a
// k-port switch whose uplinks are oversubscribed o:1. Bandwidths and
// latencies are zero; set them afterwards or use ParseWithBandwidth.
func Parse(spec string) (*Topology, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("topology: empty spec")
	}
	parts := strings.Split(spec, "_")
	dims := make([]Dim, 0, len(parts))
	for i, p := range parts {
		d, err := parseBlock(p)
		if err != nil {
			return nil, fmt.Errorf("topology: dim %d %q: %w", i+1, p, err)
		}
		dims = append(dims, d)
	}
	return New(dims...)
}

// ParseWithBandwidth parses a shape spec and assigns per-dimension
// bandwidths (GB/s) positionally, matching the paper's "BW (GB/s)" columns
// in Table II. The number of bandwidths must equal the number of dims.
func ParseWithBandwidth(spec string, gbps []float64, hopLatency units.Time) (*Topology, error) {
	t, err := Parse(spec)
	if err != nil {
		return nil, err
	}
	if len(gbps) != len(t.Dims) {
		return nil, fmt.Errorf("topology: spec %q has %d dims but %d bandwidths given", spec, len(t.Dims), len(gbps))
	}
	for i := range t.Dims {
		if gbps[i] < 0 {
			return nil, fmt.Errorf("topology: dim %d negative bandwidth %v", i+1, gbps[i])
		}
		t.Dims[i].Bandwidth = units.GBps(gbps[i])
		t.Dims[i].Latency = hopLatency
	}
	return t, nil
}

func parseBlock(s string) (Dim, error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return Dim{}, fmt.Errorf("expected Block(args) form")
	}
	name := strings.TrimSpace(s[:open])
	var args []int
	for _, a := range strings.Split(s[open+1:len(s)-1], ",") {
		v, err := strconv.Atoi(strings.TrimSpace(a))
		if err != nil {
			return Dim{}, fmt.Errorf("bad argument %q: %w", a, err)
		}
		args = append(args, v)
	}
	model, size, err := ModelFor(name, args)
	if err != nil {
		return Dim{}, err
	}
	if err := model.Validate(size); err != nil {
		return Dim{}, err
	}
	return Dim{Kind: model, Size: size}, nil
}
