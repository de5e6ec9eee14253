// Package memory implements ASTRA-sim 2.0's memory API (Section IV-D):
// local HBM access, disaggregated remote memory pools in the four designs
// of Fig. 5 (multi-level switch, ring, mesh, hierarchical), the pipelined
// multi-stage transfer model of Figs. 6-7, in-switch collective
// communication (Fig. 8), and a ZeRO-Infinity-style baseline in which each
// GPU owns a private remote path (Fig. 10).
//
// The memory API "takes tensor location (local or remote), tensor size,
// memory bandwidth, and memory system design as arguments and returns the
// number of cycles to load or store a tensor" — here System.AccessTime,
// returning simulated time rather than cycles, consistent with the rest of
// the simulator. The execution engine holds a System directly.
package memory

import (
	"fmt"

	"repro/internal/units"
)

// Location says where a tensor lives.
type Location int

// Tensor locations.
const (
	Local Location = iota
	Remote
)

// String names the location.
func (l Location) String() string {
	if l == Remote {
		return "remote"
	}
	return "local"
}

// LocalModel is the paper's local memory model:
//
//	AccessTime = AccessLatency + TensorSize / MemoryBandwidth
type LocalModel struct {
	Latency   units.Time
	Bandwidth units.Bandwidth
}

// Validate reports configuration errors.
func (m LocalModel) Validate() error {
	if m.Latency < 0 {
		return fmt.Errorf("memory: negative local latency")
	}
	if m.Bandwidth <= 0 {
		return fmt.Errorf("memory: non-positive local bandwidth")
	}
	return nil
}

// AccessTime returns the local access time for a tensor.
func (m LocalModel) AccessTime(size units.ByteSize) units.Time {
	if size <= 0 {
		return 0
	}
	return m.Latency + m.Bandwidth.TransferTime(size)
}

// PoolDesign selects one of the disaggregated pool architectures of Fig. 5,
// plus the ZeRO-Infinity private-path baseline of Fig. 10.
type PoolDesign int

// Pool designs.
const (
	// Hierarchical is the paper's primary design (Fig. 6): GPUs behind
	// in-node switches, out-node switches, and shared remote memory
	// groups, with chunked pipelined transfers.
	Hierarchical PoolDesign = iota
	// MultiLevelSwitch connects GPUs to remote memories through a
	// two-level switch tree (Fig. 5a).
	MultiLevelSwitch
	// RingPool places GPUs and remote memories on one ring (Fig. 5b).
	RingPool
	// MeshPool arranges GPUs and remote memories on a 2D mesh (Fig. 5c).
	MeshPool
	// PrivatePerGPU is the ZeRO-Infinity baseline: every GPU has its own
	// CPU+NVMe remote path of RemoteGroupBW; there is no shared pool
	// fabric (Fig. 10).
	PrivatePerGPU
)

// String names the design.
func (d PoolDesign) String() string {
	switch d {
	case Hierarchical:
		return "hierarchical"
	case MultiLevelSwitch:
		return "multi-level-switch"
	case RingPool:
		return "ring"
	case MeshPool:
		return "mesh"
	case PrivatePerGPU:
		return "private-per-gpu (ZeRO-Infinity)"
	default:
		return fmt.Sprintf("PoolDesign(%d)", int(d))
	}
}

// PoolConfig describes a disaggregated memory system. Field names follow
// the paper's Fig. 6 and Table V.
type PoolConfig struct {
	Design PoolDesign

	// NumNodes and GPUsPerNode describe the compute side.
	NumNodes    int
	GPUsPerNode int

	// NumOutSwitches is the number of out-node switches between nodes and
	// the remote memory groups (hierarchical and multi-level designs).
	NumOutSwitches int
	// NumRemoteGroups is the number of remote memory groups forming the
	// shared pool.
	NumRemoteGroups int

	// ChunkSize is the pipelined transfer unit (Fig. 7); defaults to 1 MiB.
	ChunkSize units.ByteSize

	// RemoteGroupBW is each remote memory group's bandwidth — the
	// "mem-side out-node pooled fabric" rate of Fig. 6, and Table V's
	// "Remote Mem Group BW".
	RemoteGroupBW units.Bandwidth
	// GPUSideOutFabricBW is the GPU-side out-node pooled fabric bandwidth
	// per node uplink.
	GPUSideOutFabricBW units.Bandwidth
	// InNodeFabricBW is the in-node pooled fabric bandwidth per GPU
	// (Table V's "In-node Pooled Fabric BW").
	InNodeFabricBW units.Bandwidth

	// Latency is the end-to-end access latency added once per access.
	Latency units.Time
}

// NumGPUs returns the total GPU count.
func (c PoolConfig) NumGPUs() int { return c.NumNodes * c.GPUsPerNode }

// Validate reports configuration errors.
func (c PoolConfig) Validate() error {
	if c.NumNodes <= 0 || c.GPUsPerNode <= 0 {
		return fmt.Errorf("memory: pool needs positive node and GPU counts, got %d nodes x %d GPUs", c.NumNodes, c.GPUsPerNode)
	}
	if c.NumRemoteGroups <= 0 {
		return fmt.Errorf("memory: pool needs at least one remote memory group")
	}
	if c.RemoteGroupBW <= 0 {
		return fmt.Errorf("memory: non-positive remote group bandwidth")
	}
	if c.Latency < 0 {
		return fmt.Errorf("memory: negative pool latency")
	}
	switch c.Design {
	case Hierarchical, MultiLevelSwitch:
		if c.NumOutSwitches <= 0 {
			return fmt.Errorf("memory: %v design needs out-node switches", c.Design)
		}
		if c.GPUSideOutFabricBW <= 0 || c.InNodeFabricBW <= 0 {
			return fmt.Errorf("memory: %v design needs positive fabric bandwidths", c.Design)
		}
	case RingPool, MeshPool:
		if c.InNodeFabricBW <= 0 {
			return fmt.Errorf("memory: %v design needs a positive link bandwidth (InNodeFabricBW)", c.Design)
		}
	case PrivatePerGPU:
		// Only RemoteGroupBW is used.
	default:
		return fmt.Errorf("memory: unknown pool design %d", int(c.Design))
	}
	if c.ChunkSize < 0 {
		return fmt.Errorf("memory: negative chunk size")
	}
	return nil
}

// chunk returns the effective pipelining chunk size.
func (c PoolConfig) chunk() units.ByteSize {
	if c.ChunkSize > 0 {
		return c.ChunkSize
	}
	return units.MiB
}
