package memory

import (
	"strings"
	"testing"

	"repro/internal/units"
)

// Table-driven edge cases for the remote-pool model: degenerate shapes,
// zero and negative inputs, oversubscription, and validation coverage for
// every design. These are the corners a cluster spec can reach through
// user JSON, so they must fail (or degrade) predictably.

func validHier() PoolConfig {
	return PoolConfig{
		Design: Hierarchical, NumNodes: 16, GPUsPerNode: 16,
		NumOutSwitches: 4, NumRemoteGroups: 8,
		RemoteGroupBW: units.GBps(100), GPUSideOutFabricBW: units.GBps(100),
		InNodeFabricBW: units.GBps(256),
	}
}

func TestPoolValidateEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*PoolConfig)
		errSub string // "" = must validate
	}{
		{"valid baseline", func(*PoolConfig) {}, ""},
		{"zero nodes", func(c *PoolConfig) { c.NumNodes = 0 }, "node and GPU counts"},
		{"negative nodes", func(c *PoolConfig) { c.NumNodes = -4 }, "node and GPU counts"},
		{"zero gpus per node", func(c *PoolConfig) { c.GPUsPerNode = 0 }, "node and GPU counts"},
		{"zero remote groups", func(c *PoolConfig) { c.NumRemoteGroups = 0 }, "remote memory group"},
		{"zero group bandwidth", func(c *PoolConfig) { c.RemoteGroupBW = 0 }, "remote group bandwidth"},
		{"negative group bandwidth", func(c *PoolConfig) { c.RemoteGroupBW = units.GBps(-1) }, "remote group bandwidth"},
		{"negative latency", func(c *PoolConfig) { c.Latency = -units.Microsecond }, "latency"},
		{"negative chunk", func(c *PoolConfig) { c.ChunkSize = -1 }, "chunk"},
		{"hierarchical without out-switches", func(c *PoolConfig) { c.NumOutSwitches = 0 }, "out-node switches"},
		{"hierarchical zero gpu-side fabric", func(c *PoolConfig) { c.GPUSideOutFabricBW = 0 }, "fabric bandwidths"},
		{"hierarchical zero in-node fabric", func(c *PoolConfig) { c.InNodeFabricBW = 0 }, "fabric bandwidths"},
		{"unknown design", func(c *PoolConfig) { c.Design = PoolDesign(99) }, "unknown pool design"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := validHier()
			c.mutate(&cfg)
			err := cfg.Validate()
			if c.errSub == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid config accepted")
			}
			if !strings.Contains(err.Error(), c.errSub) {
				t.Fatalf("error %q does not mention %q", err, c.errSub)
			}
		})
	}
}

func TestRingMeshValidateNeedLinkBW(t *testing.T) {
	for _, d := range []PoolDesign{RingPool, MeshPool} {
		cfg := validHier()
		cfg.Design = d
		cfg.InNodeFabricBW = 0
		if err := cfg.Validate(); err == nil {
			t.Errorf("%v with zero link bandwidth accepted", d)
		}
		cfg.InNodeFabricBW = units.GBps(64)
		// Ring and mesh pools ignore the switch-tree fields entirely.
		cfg.NumOutSwitches = 0
		cfg.GPUSideOutFabricBW = 0
		if err := cfg.Validate(); err != nil {
			t.Errorf("%v rejects a config without switch-tree fields: %v", d, err)
		}
	}
}

// TestSingleGPUDegenerateShapes: a 1x1 compute side against one remote
// group is the smallest legal pool; every design must price it positively
// and finitely.
func TestSingleGPUDegenerateShapes(t *testing.T) {
	for _, d := range []PoolDesign{Hierarchical, MultiLevelSwitch, RingPool, MeshPool, PrivatePerGPU} {
		cfg := PoolConfig{
			Design: d, NumNodes: 1, GPUsPerNode: 1,
			NumOutSwitches: 1, NumRemoteGroups: 1,
			RemoteGroupBW: units.GBps(100), GPUSideOutFabricBW: units.GBps(100),
			InNodeFabricBW: units.GBps(256),
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%v: single-GPU pool rejected: %v", d, err)
			continue
		}
		got := cfg.TransferTime(64 * units.MiB)
		if got <= 0 {
			t.Errorf("%v: single-GPU transfer time = %v", d, got)
		}
		// Doubling the tensor must not make it cheaper.
		if cfg.TransferTime(128*units.MiB) < got {
			t.Errorf("%v: larger transfer is faster", d)
		}
	}
}

// TestZeroAndNegativeSizes: non-positive transfers are free in every
// design, including the in-switch path.
func TestZeroAndNegativeSizes(t *testing.T) {
	for _, d := range []PoolDesign{Hierarchical, MultiLevelSwitch, RingPool, MeshPool, PrivatePerGPU} {
		cfg := validHier()
		cfg.Design = d
		for _, size := range []units.ByteSize{0, -1, -units.GiB} {
			if got := cfg.TransferTime(size); got != 0 {
				t.Errorf("%v: TransferTime(%d) = %v, want 0", d, size, got)
			}
			if got := cfg.InSwitchCollectiveTime(size); got != 0 {
				t.Errorf("%v: InSwitchCollectiveTime(%d) = %v, want 0", d, size, got)
			}
		}
	}
}

// TestPoolOversubscription: scaling the compute side up against a fixed
// pool must never speed a per-GPU transfer, and heavy oversubscription
// must slow it strictly — the property the multi-job pool arbiter builds
// on.
func TestPoolOversubscription(t *testing.T) {
	for _, d := range []PoolDesign{Hierarchical, MultiLevelSwitch, RingPool, MeshPool} {
		base := validHier()
		base.Design = d
		prev := units.Time(-1)
		for _, nodes := range []int{1, 4, 16, 64, 256} {
			cfg := base
			cfg.NumNodes = nodes
			got := cfg.TransferTime(64 * units.MiB)
			if got < prev {
				t.Errorf("%v: %d nodes transfers faster (%v) than fewer nodes (%v)", d, nodes, got, prev)
			}
			prev = got
		}
		small, large := base, base
		small.NumNodes, large.NumNodes = 1, 256
		if !(large.TransferTime(64*units.MiB) > small.TransferTime(64*units.MiB)) {
			t.Errorf("%v: 256x oversubscription shows no slowdown", d)
		}
	}
	// The private-path baseline is the exception: no shared pool fabric,
	// so scale-out leaves the per-GPU time untouched.
	base := validHier()
	base.Design = PrivatePerGPU
	small, large := base, base
	small.NumNodes, large.NumNodes = 1, 256
	if small.TransferTime(64*units.MiB) != large.TransferTime(64*units.MiB) {
		t.Error("private per-GPU paths must not contend")
	}
}

// TestZeroLocalBandwidthRejected: the engine divides by the local
// bandwidth, so validation has to stop it at the boundary — including
// through the System wrapper a cluster spec builds.
func TestZeroLocalBandwidthRejected(t *testing.T) {
	sys := System{Local: LocalModel{Latency: units.Microsecond, Bandwidth: 0}}
	if err := sys.Validate(); err == nil {
		t.Error("zero local bandwidth accepted")
	}
	sys.Local.Bandwidth = units.GBps(-5)
	if err := sys.Validate(); err == nil {
		t.Error("negative local bandwidth accepted")
	}
	// A pooled system with a broken pool must fail too.
	sys.Local.Bandwidth = units.GBps(2039)
	sys.HasPool = true
	sys.Pool = PoolConfig{Design: Hierarchical}
	if err := sys.Validate(); err == nil {
		t.Error("pooled system with empty pool config accepted")
	}
}

// TestRemoteFallsBackToLocalWithoutPool: without a pool, remote accesses
// price as local — the single-tier degenerate system.
func TestRemoteFallsBackToLocalWithoutPool(t *testing.T) {
	sys := System{Local: LocalModel{Latency: units.Microsecond, Bandwidth: units.GBps(2000)}}
	local := sys.AccessTime(Local, 64*units.MiB)
	remote := sys.AccessTime(Remote, 64*units.MiB)
	if local != remote {
		t.Errorf("remote access without a pool = %v, local = %v; want equal", remote, local)
	}
}
