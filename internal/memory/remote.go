package memory

import (
	"math"

	"repro/internal/units"
)

// TransferTime returns the time for every GPU to load (or store) a tensor
// of perGPU bytes from the remote pool simultaneously — the bulk access
// pattern of large-model training, where all data-parallel workers stream
// their parameter shards together. Loads and stores are symmetric in all
// of the pool models.
func (c PoolConfig) TransferTime(perGPU units.ByteSize) units.Time {
	if perGPU <= 0 {
		return 0
	}
	switch c.Design {
	case Hierarchical, MultiLevelSwitch:
		return c.Latency + c.pipelined(perGPU, false)
	case PrivatePerGPU:
		// Each GPU streams over its own remote path; no sharing.
		return c.Latency + c.RemoteGroupBW.TransferTime(perGPU)
	case RingPool:
		return c.Latency + c.ringTransfer(perGPU)
	case MeshPool:
		return c.Latency + c.meshTransfer(perGPU)
	default:
		return c.Latency + c.RemoteGroupBW.TransferTime(perGPU)
	}
}

// InSwitchCollectiveTime returns the time for every GPU to load perGPU
// bytes of parameters that are gathered in the switches on the way up
// (All-Gather while loading), or symmetrically to store gradients that are
// reduced on the way down (Reduce-Scatter while storing). Only the
// switch-based designs support in-switch collectives; other designs fall
// back to a plain transfer (the collective then costs extra network time
// elsewhere).
func (c PoolConfig) InSwitchCollectiveTime(perGPU units.ByteSize) units.Time {
	if perGPU <= 0 {
		return 0
	}
	switch c.Design {
	case Hierarchical, MultiLevelSwitch:
		return c.Latency + c.pipelined(perGPU, true)
	default:
		return c.TransferTime(perGPU)
	}
}

// SupportsInSwitchCollectives reports whether the design performs
// collectives inside the memory fabric.
func (c PoolConfig) SupportsInSwitchCollectives() bool {
	return c.Design == Hierarchical || c.Design == MultiLevelSwitch
}

// pipelined evaluates the paper's chunked pipeline model (Figs. 6-8).
//
// Every GPU loads W bytes, so W x NumGPUs bytes leave the pool. The flow
// crosses three stages — remote group to out-node switch, out-node switch
// to in-node switch, in-node switch to GPU — and chunks stream through the
// stages in a pipeline: the makespan is the sum of one traversal of every
// stage plus (stages-1 extra chunks) x the slowest stage (Fig. 7).
//
// Per-chunk stage times follow the paper's equations. For a plain transfer:
//
//	TX_rem2outSW  = Chunk / RemoteGroupBW
//	TX_outSW2inSW = (Groups x Chunk) / (Nodes x GPUSideOutFabricBW)
//	TX_inSW2GPU   = (Groups x OutSW x Chunk) / (GPUs x InNodeFabricBW)
//
// With in-switch collectives, parameters are gathered while being loaded,
// so the fan-out divisions by Nodes and GPUs disappear (Fig. 8):
//
//	TX_outSW2inSW = (Groups x Chunk) / GPUSideOutFabricBW
//	TX_inSW2GPU   = (Groups x OutSW x Chunk) / InNodeFabricBW
func (c PoolConfig) pipelined(perGPU units.ByteSize, inSwitch bool) units.Time {
	chunk := c.chunk()
	total := float64(perGPU) * float64(c.NumGPUs())
	perLane := total / float64(c.NumRemoteGroups) / float64(c.NumOutSwitches)
	stages := perLane / float64(chunk)
	if stages < 1 {
		stages = 1
	}

	// Each remote memory group feeds every out-node switch concurrently,
	// so one pipeline stage draws NumOutSwitches chunks from each group;
	// RemoteGroupBW is the group's aggregate bandwidth (Table V).
	tx1 := float64(c.NumOutSwitches) * float64(chunk) / float64(c.RemoteGroupBW)
	var tx2, tx3 float64
	if inSwitch {
		tx2 = float64(c.NumRemoteGroups) * float64(chunk) / float64(c.GPUSideOutFabricBW)
		tx3 = float64(c.NumRemoteGroups) * float64(c.NumOutSwitches) * float64(chunk) / float64(c.InNodeFabricBW)
	} else {
		tx2 = float64(c.NumRemoteGroups) * float64(chunk) / (float64(c.NumNodes) * float64(c.GPUSideOutFabricBW))
		tx3 = float64(c.NumRemoteGroups) * float64(c.NumOutSwitches) * float64(chunk) / (float64(c.NumGPUs()) * float64(c.InNodeFabricBW))
	}

	maxStage := math.Max(tx1, math.Max(tx2, tx3))
	totalSec := tx1 + tx2 + tx3 + (stages-1)*maxStage
	return units.FromSeconds(totalSec)
}

// ringTransfer models the ring pool of Fig. 5(b): GPUs and remote memory
// groups alternate on a single ring of InNodeFabricBW links. Every byte
// travels a quarter of the ring on average (shortest-path routing in both
// directions), and total ring capacity is one link per node:
//
//	time = (W x GPUs x avgHops) / (ringNodes x linkBW)
func (c PoolConfig) ringTransfer(perGPU units.ByteSize) units.Time {
	nodes := c.NumGPUs() + c.NumRemoteGroups
	avgHops := float64(nodes) / 4
	if avgHops < 1 {
		avgHops = 1
	}
	linkSeconds := float64(perGPU) * float64(c.NumGPUs()) * avgHops
	capacity := float64(nodes) * float64(c.InNodeFabricBW)
	return units.FromSeconds(linkSeconds / capacity)
}

// meshTransfer models the mesh pool of Fig. 5(c): GPUs on one edge of a
// 2D mesh, remote memory groups on the opposite edge. With dimension-order
// routing a byte crosses about (rows+cols)/3 links on average, and the
// mesh provides 2 x rows x cols link capacity.
func (c PoolConfig) meshTransfer(perGPU units.ByteSize) units.Time {
	n := c.NumGPUs() + c.NumRemoteGroups
	side := int(math.Ceil(math.Sqrt(float64(n))))
	avgHops := float64(2*side) / 3
	if avgHops < 1 {
		avgHops = 1
	}
	linkSeconds := float64(perGPU) * float64(c.NumGPUs()) * avgHops
	capacity := 2 * float64(side) * float64(side) * float64(c.InNodeFabricBW)
	return units.FromSeconds(linkSeconds / capacity)
}

// System combines a local model and a pool; its AccessTime is the memory
// API the execution engine consumes.
type System struct {
	Local LocalModel
	Pool  PoolConfig
	// HasPool indicates remote accesses are valid; without a pool, remote
	// accesses fall back to local timing (single-tier memory).
	HasPool bool
}

// Validate reports configuration errors.
func (s System) Validate() error {
	if err := s.Local.Validate(); err != nil {
		return err
	}
	if s.HasPool {
		return s.Pool.Validate()
	}
	return nil
}

// AccessTime returns a tensor access's time; loads and stores cost the
// same in every design. Remote accesses use the bulk pool transfer model
// (all GPUs streaming together, the dominant pattern in sharded training);
// local accesses use the latency + size/BW model.
func (s System) AccessTime(loc Location, size units.ByteSize) units.Time {
	if loc == Local || !s.HasPool {
		return s.Local.AccessTime(size)
	}
	return s.Pool.TransferTime(size)
}
