package memory

import (
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestLocalModel(t *testing.T) {
	m := LocalModel{Latency: 500 * units.Nanosecond, Bandwidth: units.GBps(2000)}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// 2 GB at 2000 GB/s is 1 ms, plus 500 ns latency.
	want := units.Millisecond + 500*units.Nanosecond
	if got := m.AccessTime(2 * units.GB); got != want {
		t.Errorf("AccessTime = %v, want %v", got, want)
	}
	if m.AccessTime(0) != 0 {
		t.Error("zero-size access should be free")
	}
}

func TestLocalModelValidate(t *testing.T) {
	if err := (LocalModel{Latency: -1, Bandwidth: units.GBps(1)}).Validate(); err == nil {
		t.Error("negative latency accepted")
	}
	if err := (LocalModel{Bandwidth: 0}).Validate(); err == nil {
		t.Error("zero bandwidth accepted")
	}
}

// paperPool returns the running example of Fig. 6: 16 nodes x 16 GPUs,
// 4 out-node switches, 8 remote memory groups.
func paperPool() PoolConfig {
	return PoolConfig{
		Design:             Hierarchical,
		NumNodes:           16,
		GPUsPerNode:        16,
		NumOutSwitches:     4,
		NumRemoteGroups:    8,
		ChunkSize:          units.MiB,
		RemoteGroupBW:      units.GBps(100),
		GPUSideOutFabricBW: units.GBps(100),
		InNodeFabricBW:     units.GBps(256),
	}
}

func TestHierarchicalPipelineArithmetic(t *testing.T) {
	c := paperPool()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every GPU loads 32 MiB: 8 GiB total, 256 MiB per (group, switch)
	// lane, 256 chunks of 1 MiB. Each group serves its 4 switch links from
	// its aggregate bandwidth:
	//   tx1 = 4 x 1 MiB / 100 GB/s              = 41.94304 us (bottleneck)
	//   tx2 = 8 MiB / (16 x 100 GB/s)           = 5.24288 us
	//   tx3 = 32 MiB / (256 x 256 GB/s)         = 0.512 us
	//   total = tx1+tx2+tx3 + 255 x tx1
	got := c.TransferTime(32 * units.MiB)
	tx1 := 4 * 1048576.0 / 100e9
	tx2 := 8 * 1048576.0 / (16 * 100e9)
	tx3 := 32 * 1048576.0 / (256 * 256e9)
	want := units.FromSeconds(tx1 + tx2 + tx3 + 255*tx1)
	if got != want {
		t.Errorf("TransferTime = %v, want %v", got, want)
	}
}

func TestInSwitchCollectiveArithmetic(t *testing.T) {
	c := paperPool()
	// In-switch collective removes the fan-out divisions in tx2/tx3.
	got := c.InSwitchCollectiveTime(32 * units.MiB)
	tx1 := 4 * 1048576.0 / 100e9
	tx2 := 8 * 1048576.0 / 100e9
	tx3 := 32 * 1048576.0 / 256e9
	max := tx2
	if tx3 > max {
		max = tx3
	}
	want := units.FromSeconds(tx1 + tx2 + tx3 + 255*max)
	if got != want {
		t.Errorf("InSwitchCollectiveTime = %v, want %v", got, want)
	}
	if !c.SupportsInSwitchCollectives() {
		t.Error("hierarchical design should support in-switch collectives")
	}
}

func TestSubChunkTransfer(t *testing.T) {
	c := paperPool()
	// A transfer smaller than one chunk per lane is a single pipeline pass.
	got := c.TransferTime(64 * units.KiB) // 16 MiB total, 512 KiB per lane
	tx1 := 4 * 1048576.0 / 100e9
	tx2 := 8 * 1048576.0 / (16 * 100e9)
	tx3 := 32 * 1048576.0 / (256 * 256e9)
	want := units.FromSeconds(tx1 + tx2 + tx3)
	if got != want {
		t.Errorf("sub-chunk TransferTime = %v, want %v (single pass)", got, want)
	}
}

func TestPrivatePerGPUMatchesDirectStream(t *testing.T) {
	c := PoolConfig{
		Design:          PrivatePerGPU,
		NumNodes:        64,
		GPUsPerNode:     4,
		NumRemoteGroups: 256,
		RemoteGroupBW:   units.GBps(100),
		Latency:         2 * units.Microsecond,
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	want := 2*units.Microsecond + units.GBps(100).TransferTime(units.GB)
	if got := c.TransferTime(units.GB); got != want {
		t.Errorf("ZeRO-Infinity stream = %v, want %v", got, want)
	}
	if c.SupportsInSwitchCollectives() {
		t.Error("private paths cannot gather in switches")
	}
	// In-switch request falls back to plain transfer.
	if got := c.InSwitchCollectiveTime(units.GB); got != want {
		t.Errorf("fallback = %v, want %v", got, want)
	}
}

func TestRingAndMeshPools(t *testing.T) {
	base := PoolConfig{
		NumNodes:        16,
		GPUsPerNode:     16,
		NumRemoteGroups: 8,
		InNodeFabricBW:  units.GBps(256),
		RemoteGroupBW:   units.GBps(100),
	}
	ring := base
	ring.Design = RingPool
	mesh := base
	mesh.Design = MeshPool
	if err := ring.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := mesh.Validate(); err != nil {
		t.Fatal(err)
	}
	rt := ring.TransferTime(32 * units.MiB)
	mt := mesh.TransferTime(32 * units.MiB)
	if rt <= 0 || mt <= 0 {
		t.Fatal("pool transfers must take time")
	}
	// A ring's average hop count grows linearly with node count while a
	// mesh's grows with the square root: the mesh must be faster here.
	if mt >= rt {
		t.Errorf("mesh (%v) should beat ring (%v) at this scale", mt, rt)
	}
}

func TestTransferMonotonicInSize(t *testing.T) {
	c := paperPool()
	f := func(a, b uint16) bool {
		lo, hi := units.ByteSize(a)*units.KiB, units.ByteSize(b)*units.KiB
		if lo > hi {
			lo, hi = hi, lo
		}
		return c.TransferTime(lo) <= c.TransferTime(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMoreGroupsNeverSlower(t *testing.T) {
	small := paperPool()
	big := paperPool()
	big.NumRemoteGroups = 16
	// Doubling the pool's parallelism must not slow a large transfer.
	if big.TransferTime(256*units.MiB) > small.TransferTime(256*units.MiB) {
		t.Error("doubling remote groups slowed the transfer down")
	}
}

func TestPoolValidate(t *testing.T) {
	bad := []PoolConfig{
		{},
		{Design: Hierarchical, NumNodes: 1, GPUsPerNode: 1, NumRemoteGroups: 1, RemoteGroupBW: units.GBps(1)}, // no switches
		{Design: RingPool, NumNodes: 1, GPUsPerNode: 1, NumRemoteGroups: 1, RemoteGroupBW: units.GBps(1)},     // no link BW
		{Design: PrivatePerGPU, NumNodes: 1, GPUsPerNode: 1, NumRemoteGroups: 1},                              // no remote BW
		{Design: PoolDesign(99), NumNodes: 1, GPUsPerNode: 1, NumRemoteGroups: 1, RemoteGroupBW: units.GBps(1)},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d (%v): expected validation error", i, c.Design)
		}
	}
	good := paperPool()
	if err := good.Validate(); err != nil {
		t.Errorf("paper pool rejected: %v", err)
	}
}

func TestSystemAPI(t *testing.T) {
	s := System{
		Local:   LocalModel{Latency: units.Microsecond, Bandwidth: units.GBps(2000)},
		Pool:    paperPool(),
		HasPool: true,
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	local := s.AccessTime(Local, units.MB)
	remote := s.AccessTime(Remote, units.MB)
	if local >= remote {
		t.Errorf("local (%v) should be faster than remote (%v)", local, remote)
	}
	// Without a pool, remote falls back to local.
	noPool := System{Local: s.Local}
	if noPool.AccessTime(Remote, units.MB) != local {
		t.Error("poolless remote access should use local timing")
	}
}

func TestDesignStrings(t *testing.T) {
	for _, d := range []PoolDesign{Hierarchical, MultiLevelSwitch, RingPool, MeshPool, PrivatePerGPU} {
		if d.String() == "" {
			t.Errorf("empty name for design %d", int(d))
		}
	}
	if Local.String() != "local" || Remote.String() != "remote" {
		t.Error("location names wrong")
	}
}
