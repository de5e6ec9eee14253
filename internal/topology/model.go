package topology

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/units"
)

// This file is the pluggable dimension-model layer. A DimModel describes one
// hierarchical building block's complete behavior — notation, hop costs,
// collective step structure, phase latency, bandwidth derating, transit
// paths and message-level schedules — so that the rest of the
// simulator (parser, analytical estimator, event-driven engine, network
// backend) never dispatches on block identity. A new fabric is added by
// implementing the interface and adding its factory to the block table
// (blockTable, below); every layer picks it up without modification. The
// table is fixed at compile time: no other package can extend it.
//
// The table holds five blocks:
//
//	R(k)      Ring            Ring collective (Table I)
//	FC(k)     FullyConnected  Direct collective (Table I)
//	SW(k)     Switch          Halving-Doubling collective (Table I)
//	SW(k,o)   Switch          Halving-Doubling, o:1 oversubscribed uplinks
//	M(k)      Mesh            Ring-like collective over a dilation-2 line
//	                          embedding, non-wraparound hop costs
//	T2D(a,b)  Torus2D         per-axis bidirectional-ring phases (TPU shape)

// PhaseKind identifies the primitive phase semantics a model schedules.
// (All-Reduce is composite: a Reduce-Scatter pass then an All-Gather pass.)
type PhaseKind int

// The three primitive phases of hierarchical collectives.
const (
	PhaseReduceScatter PhaseKind = iota
	PhaseAllGather
	PhaseAllToAll
)

// String names the phase.
func (p PhaseKind) String() string {
	switch p {
	case PhaseReduceScatter:
		return "reduce-scatter"
	case PhaseAllGather:
		return "all-gather"
	case PhaseAllToAll:
		return "all-to-all"
	default:
		return fmt.Sprintf("PhaseKind(%d)", int(p))
	}
}

// Xfer is one point-to-point transfer of a message-level schedule. Src and
// Dst are member indices (0..k-1) within the communicator group, not ranks.
type Xfer struct {
	Src, Dst int
	Bytes    units.ByteSize
}

// DimModel is the behavior of one building block. Position arguments are
// coordinates within the dimension (0..size-1).
type DimModel interface {
	// String is the canonical shape-notation token, e.g. "R" or "T2D"
	// (models print as their notation).
	String() string
	// LongName is the spelled-out name used in prose, e.g. "Ring".
	LongName() string
	// CollectiveName is the topology-aware collective algorithm the block
	// pairs with (Table I of the paper).
	CollectiveName() string
	// Format renders the block at a given size in shape notation,
	// e.g. "R(8)", "T2D(4,2)", "SW(8,4)".
	Format(size int) string
	// Validate checks that the block supports a dimension of this size;
	// it is called at topology-construction time.
	Validate(size int) error
	// Hops is the number of link traversals between two distinct
	// positions.
	Hops(a, b, size int) int
	// Steps is the number of communication steps the block's collective
	// uses on a group of the given size.
	Steps(size int) int
	// PhaseLatency is the latency component of one collective phase over k
	// members with the given per-hop link latency.
	PhaseLatency(k int, link units.Time) units.Time
	// EffectiveBandwidth derates the configured per-NPU bandwidth to what
	// the block actually delivers to collectives at the given dimension
	// size (e.g. switch oversubscription, mesh embedding dilation).
	EffectiveBandwidth(bw units.Bandwidth, size int) units.Bandwidth
	// TransitPositions appends to path the ordered positions (both
	// endpoints inclusive) a message crosses travelling from a to b, for
	// first-order transit-congestion charging, and returns the extended
	// slice. A block with no NPU transit path (fabric hops are folded into
	// the hop latency) returns path unchanged.
	TransitPositions(path []int, a, b, size int) []int
	// PhaseSchedule is the message-level schedule of the block's
	// collective: one slice per bulk-synchronous step, each holding that
	// step's transfers. d is the per-NPU input size (the full input for
	// Reduce-Scatter, the shard for All-Gather). Only PhaseReduceScatter
	// and PhaseAllGather are scheduled; All-to-All is block-agnostic.
	PhaseSchedule(op PhaseKind, k int, d units.ByteSize) [][]Xfer
}

// Subdividable is implemented by blocks that remain structurally valid on
// any subset of their members — switches, whose ports are interchangeable.
// Slice returns the model a k-member slice of the block behaves as when a
// job owns only k of the block's ports. The multi-job cluster layer uses
// it to carve per-job sub-fabrics out of a shared dimension; blocks
// without it (rings, meshes, tori) can only be given to a job whole,
// because a subset of their members is not the same fabric.
type Subdividable interface {
	Slice(k int) (DimModel, error)
}

// CeilLog2 returns ceil(log2(n)) for n >= 1 — the step count of
// halving-doubling-style algorithms.
func CeilLog2(n int) int {
	s, v := 0, 1
	for v < n {
		v <<= 1
		s++
	}
	return s
}

// genericPhaseTraffic is the per-phase traffic shared by every registered
// block (bytes moved depend on the phase semantics, not the fabric):
//
//	Reduce-Scatter: 2·D·(k−1)/k  (send and receive D/k per peer)
//	All-Gather:     2·D·(k−1)    (data grows k-fold)
//	All-to-All:     2·D·(k−1)/k  (reshuffle the (k−1)/k remote fraction)
func genericPhaseTraffic(op PhaseKind, d units.ByteSize, k int) units.ByteSize {
	switch op {
	case PhaseReduceScatter, PhaseAllToAll:
		return 2 * d * units.ByteSize(k-1) / units.ByteSize(k)
	case PhaseAllGather:
		return 2 * d * units.ByteSize(k-1)
	default:
		panic("topology: PhaseTraffic on composite phase")
	}
}

// baseModel supplies the defaults most blocks share; concrete models embed
// it and override what differs.
type baseModel struct{}

func (baseModel) Validate(size int) error {
	if size < 2 {
		return fmt.Errorf("building blocks need k >= 2, got %d", size)
	}
	return nil
}

func (baseModel) EffectiveBandwidth(bw units.Bandwidth, size int) units.Bandwidth { return bw }

func (baseModel) TransitPositions(path []int, a, b, size int) []int { return path }

// ringSchedule is the ring algorithm's message-level schedule over an
// arbitrary logical member order: k−1 steps, each member forwarding per
// bytes to its successor in the order.
func ringSchedule(order []int, per units.ByteSize) [][]Xfer {
	k := len(order)
	steps := make([][]Xfer, 0, k-1)
	for s := 0; s < k-1; s++ {
		step := make([]Xfer, 0, k)
		for i := 0; i < k; i++ {
			step = append(step, Xfer{Src: order[i], Dst: order[(i+1)%k], Bytes: per})
		}
		steps = append(steps, step)
	}
	return steps
}

// identityOrder returns [0, 1, ..., k-1].
func identityOrder(k int) []int {
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	return order
}

// ringPer returns the ring algorithm's per-step transfer size: D/k chunks
// for Reduce-Scatter, the member's whole shard for All-Gather.
func ringPer(op PhaseKind, d units.ByteSize, k int) units.ByteSize {
	if op == PhaseReduceScatter {
		return d / units.ByteSize(k)
	}
	return d
}

// directSchedule is the direct algorithm: one step in which every ordered
// pair exchanges per bytes.
func directSchedule(k int, per units.ByteSize) [][]Xfer {
	step := make([]Xfer, 0, k*(k-1))
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if i != j {
				step = append(step, Xfer{Src: i, Dst: j, Bytes: per})
			}
		}
	}
	return [][]Xfer{step}
}

// ---------------------------------------------------------------- Ring ----

type ringModel struct{ baseModel }

func (ringModel) String() string         { return "R" }
func (ringModel) LongName() string       { return "Ring" }
func (ringModel) CollectiveName() string { return "Ring" }
func (m ringModel) Format(size int) string {
	return fmt.Sprintf("%s(%d)", m, size)
}

func (ringModel) Hops(a, b, size int) int {
	fwd := (b - a + size) % size
	bwd := (a - b + size) % size
	if fwd < bwd {
		return fwd
	}
	return bwd
}

func (ringModel) Steps(size int) int {
	if size <= 1 {
		return 0
	}
	return size - 1
}

func (m ringModel) PhaseLatency(k int, link units.Time) units.Time {
	return units.Time(m.Steps(k)) * link
}

func (m ringModel) TransitPositions(path []int, a, b, size int) []int {
	fwd := (b - a + size) % size
	bwd := (a - b + size) % size
	dir, hops := 1, fwd
	if bwd < fwd {
		dir, hops = -1, bwd
	}
	for h, p := 0, a; h <= hops; h++ {
		path = append(path, p)
		p = (p + dir + size) % size
	}
	return path
}

func (ringModel) PhaseSchedule(op PhaseKind, k int, d units.ByteSize) [][]Xfer {
	return ringSchedule(identityOrder(k), ringPer(op, d, k))
}

// ------------------------------------------------------ FullyConnected ----

type fcModel struct{ baseModel }

func (fcModel) String() string         { return "FC" }
func (fcModel) LongName() string       { return "FullyConnected" }
func (fcModel) CollectiveName() string { return "Direct" }
func (m fcModel) Format(size int) string {
	return fmt.Sprintf("%s(%d)", m, size)
}

func (fcModel) Hops(a, b, size int) int { return 1 }

func (fcModel) Steps(size int) int {
	if size <= 1 {
		return 0
	}
	return 1
}

func (fcModel) PhaseLatency(k int, link units.Time) units.Time {
	if k <= 1 {
		return 0
	}
	return link
}

func (fcModel) PhaseSchedule(op PhaseKind, k int, d units.ByteSize) [][]Xfer {
	return directSchedule(k, ringPer(op, d, k))
}

// -------------------------------------------------------------- Switch ----

// switchModel is the Switch block; Oversub > 1 models a tapered uplink
// fabric delivering 1/Oversub of the configured per-NPU bandwidth.
type switchModel struct {
	baseModel
	Oversub int
}

func (switchModel) String() string         { return "SW" }
func (switchModel) LongName() string       { return "Switch" }
func (switchModel) CollectiveName() string { return "HalvingDoubling" }

func (m switchModel) Format(size int) string {
	if m.Oversub > 1 {
		return fmt.Sprintf("%s(%d,%d)", m, size, m.Oversub)
	}
	return fmt.Sprintf("%s(%d)", m, size)
}

func (m switchModel) Validate(size int) error {
	if err := m.baseModel.Validate(size); err != nil {
		return err
	}
	if m.Oversub < 1 {
		return fmt.Errorf("switch oversubscription factor must be >= 1, got %d", m.Oversub)
	}
	return nil
}

func (switchModel) Hops(a, b, size int) int { return 2 } // NPU -> switch -> NPU

func (switchModel) Steps(size int) int {
	if size <= 1 {
		return 0
	}
	return CeilLog2(size)
}

func (m switchModel) PhaseLatency(k int, link units.Time) units.Time {
	// Halving-Doubling crosses the switch — two links — per step.
	return units.Time(2*m.Steps(k)) * link
}

func (m switchModel) EffectiveBandwidth(bw units.Bandwidth, size int) units.Bandwidth {
	if m.Oversub <= 1 {
		return bw
	}
	return bw / units.Bandwidth(m.Oversub)
}

// Slice implements Subdividable: any k ports of a switch are themselves a
// switch. The slice drops the oversubscription factor — o:1 tapering caps
// the switch core's aggregate uplink capacity at size·BW/o, so a job
// owning only a few ports can still drive each of them at line rate while
// the core is otherwise idle. Charging the shared core when several jobs
// are active is the cluster layer's runtime arbitration, not a static
// property of the slice.
func (m switchModel) Slice(k int) (DimModel, error) {
	if k < 2 {
		return nil, fmt.Errorf("switch slice needs k >= 2, got %d", k)
	}
	return Switch, nil
}

func (switchModel) PhaseSchedule(op PhaseKind, k int, d units.ByteSize) [][]Xfer {
	if k&(k-1) != 0 {
		// Non-power-of-two groups fall back to direct exchange, matching
		// collective-library behaviour for irregular sizes.
		return directSchedule(k, ringPer(op, d, k))
	}
	steps := CeilLog2(k)
	out := make([][]Xfer, 0, steps)
	cur := d
	for s := 0; s < steps; s++ {
		// Reduce-Scatter halves the exchanged data each step starting at
		// D/2 and pairs at shrinking distances; All-Gather doubles it
		// starting at the shard D at growing distances.
		var per units.ByteSize
		var dist int
		if op == PhaseReduceScatter {
			per = cur / 2
			dist = k >> (s + 1)
			cur /= 2
		} else {
			per = cur
			dist = 1 << s
			cur *= 2
		}
		step := make([]Xfer, 0, k)
		for i := 0; i < k; i++ {
			step = append(step, Xfer{Src: i, Dst: i ^ dist, Bytes: per})
		}
		out = append(out, step)
	}
	return out
}

// ---------------------------------------------------------------- Mesh ----

// meshModel is a non-wraparound linear mesh (NoC-style). Its collective is
// the ring algorithm run over the classic dilation-2 line embedding (evens
// ascending, then odds descending), so every logical ring edge spans at
// most two physical links while hop costs between arbitrary positions are
// the wrap-free distance |a−b|. The dilation is paid in both cost terms:
// each step crosses up to two links (latency), and interior links carry
// two logical ring edges — the line's bisection is half the ring's — so
// the effective collective bandwidth is the configured bandwidth divided
// by the dilation.
type meshModel struct{ baseModel }

func (meshModel) String() string         { return "M" }
func (meshModel) LongName() string       { return "Mesh" }
func (meshModel) CollectiveName() string { return "EmbeddedRing" }
func (m meshModel) Format(size int) string {
	return fmt.Sprintf("%s(%d)", m, size)
}

func (meshModel) Hops(a, b, size int) int {
	if a > b {
		a, b = b, a
	}
	return b - a
}

func (meshModel) Steps(size int) int {
	if size <= 1 {
		return 0
	}
	return size - 1
}

// meshDilation is the worst logical-edge length of the line embedding: 1
// for k=2 (adjacent pair), 2 otherwise.
func meshDilation(k int) int {
	if k <= 2 {
		return 1
	}
	return 2
}

func (m meshModel) PhaseLatency(k int, link units.Time) units.Time {
	return units.Time(m.Steps(k)*meshDilation(k)) * link
}

func (m meshModel) EffectiveBandwidth(bw units.Bandwidth, size int) units.Bandwidth {
	return bw / units.Bandwidth(meshDilation(size))
}

func (meshModel) TransitPositions(path []int, a, b, size int) []int {
	dir := 1
	if b < a {
		dir = -1
	}
	for p := a; ; p += dir {
		path = append(path, p)
		if p == b {
			return path
		}
	}
}

// meshOrder is the dilation-2 ring embedding in a line: evens ascending,
// odds descending (0,2,4,...,5,3,1).
func meshOrder(k int) []int {
	order := make([]int, 0, k)
	for i := 0; i < k; i += 2 {
		order = append(order, i)
	}
	for i := k - 1 - (k % 2); i >= 1; i -= 2 {
		order = append(order, i)
	}
	return order
}

func (meshModel) PhaseSchedule(op PhaseKind, k int, d units.ByteSize) [][]Xfer {
	return ringSchedule(meshOrder(k), ringPer(op, d, k))
}

// ------------------------------------------------------------- Torus2D ----

// torus2DModel is a 2-D torus of a x b NPUs inside a single stacked
// dimension — the TPU pod shape. Its collective runs bidirectional-ring
// phases per axis (rows then columns for Reduce-Scatter, reversed for
// All-Gather), and hop costs are the per-axis ring distances summed.
type torus2DModel struct {
	baseModel
	A, B int
}

func (torus2DModel) String() string         { return "T2D" }
func (torus2DModel) LongName() string       { return "Torus2D" }
func (torus2DModel) CollectiveName() string { return "PerAxisRing" }

func (m torus2DModel) Format(size int) string {
	return fmt.Sprintf("%s(%d,%d)", m, m.A, m.B)
}

func (m torus2DModel) Validate(size int) error {
	if m.A < 2 || m.B < 2 {
		return fmt.Errorf("torus axes must each be >= 2, got %dx%d", m.A, m.B)
	}
	if size != m.A*m.B {
		return fmt.Errorf("torus %dx%d holds %d NPUs, dimension declares %d", m.A, m.B, m.A*m.B, size)
	}
	return nil
}

// xy splits a dimension position into torus coordinates (x varies fastest).
func (m torus2DModel) xy(p int) (int, int) { return p % m.A, p / m.A }

func (m torus2DModel) Hops(a, b, size int) int {
	ax, ay := m.xy(a)
	bx, by := m.xy(b)
	r := ringModel{}
	return r.Hops(ax, bx, m.A) + r.Hops(ay, by, m.B)
}

func (m torus2DModel) axisSteps() int { return (m.A - 1) + (m.B - 1) }

func (m torus2DModel) Steps(size int) int {
	if size <= 1 {
		return 0
	}
	if size == m.A*m.B {
		return m.axisSteps()
	}
	return size - 1 // irregular subgroup: ring fallback
}

func (m torus2DModel) PhaseLatency(k int, link units.Time) units.Time {
	return units.Time(m.Steps(k)) * link
}

func (m torus2DModel) TransitPositions(path []int, a, b, size int) []int {
	// Dimension-ordered within the block: resolve the x ring along row ay,
	// then the y ring along column bx from the corner the x ring ends on.
	ax, ay := m.xy(a)
	bx, by := m.xy(b)
	r := ringModel{}
	x := len(path)
	path = r.TransitPositions(path, ax, bx, m.A)
	for i := x; i < len(path); i++ {
		path[i] += ay * m.A
	}
	y := len(path)
	path = r.TransitPositions(path, ay, by, m.B)
	path = append(path[:y], path[y+1:]...) // the corner is already on the path
	for i := y; i < len(path); i++ {
		path[i] = path[i]*m.A + bx
	}
	return path
}

func (m torus2DModel) PhaseSchedule(op PhaseKind, k int, d units.ByteSize) [][]Xfer {
	if k != m.A*m.B {
		return ringSchedule(identityOrder(k), ringPer(op, d, k))
	}
	rowRings := func(per units.ByteSize) [][]Xfer {
		steps := make([][]Xfer, m.A-1)
		for s := range steps {
			step := make([]Xfer, 0, k)
			for p := 0; p < k; p++ {
				x, y := m.xy(p)
				step = append(step, Xfer{Src: p, Dst: y*m.A + (x+1)%m.A, Bytes: per})
			}
			steps[s] = step
		}
		return steps
	}
	colRings := func(per units.ByteSize) [][]Xfer {
		steps := make([][]Xfer, m.B-1)
		for s := range steps {
			step := make([]Xfer, 0, k)
			for p := 0; p < k; p++ {
				x, y := m.xy(p)
				step = append(step, Xfer{Src: p, Dst: ((y+1)%m.B)*m.A + x, Bytes: per})
			}
			steps[s] = step
		}
		return steps
	}
	if op == PhaseReduceScatter {
		// Rows reduce D to D/A (D/A per step), then columns reduce to
		// D/(A·B) (D/(A·B) per step).
		rows := rowRings(d / units.ByteSize(m.A))
		cols := colRings(d / units.ByteSize(m.A*m.B))
		return append(rows, cols...)
	}
	// All-Gather mirrors in reverse: columns grow the shard d to d·B
	// (forwarding d per step), then rows grow to d·A·B (d·B per step).
	cols := colRings(d)
	rows := rowRings(d * units.ByteSize(m.B))
	return append(cols, rows...)
}

// --------------------------------------------------------- block table ----

// Exported block models. Ring, FullyConnected, Switch and Mesh are
// stateless singletons usable directly in Dim literals; Torus2D and
// OversubscribedSwitch construct parameterized instances. Two instances
// with equal parameters compare equal.
var (
	Ring           DimModel = ringModel{}
	FullyConnected DimModel = fcModel{}
	Switch         DimModel = switchModel{Oversub: 1}
	Mesh           DimModel = meshModel{}
)

// Torus2D returns the a x b torus block; the owning Dim's Size must be a*b.
func Torus2D(a, b int) DimModel { return torus2DModel{A: a, B: b} }

// OversubscribedSwitch returns a Switch block whose uplink fabric is
// oversubscribed o:1 — the effective per-NPU bandwidth is Bandwidth/o.
func OversubscribedSwitch(o int) DimModel { return switchModel{Oversub: o} }

// factory builds a model (and the dimension size) from notation arguments.
type factory struct {
	minArgs, maxArgs int
	build            func(args []int) (DimModel, int, error)
}

// single is the factory body of a one-argument stateless block.
func single(m DimModel) func(args []int) (DimModel, int, error) {
	return func(args []int) (DimModel, int, error) { return m, args[0], nil }
}

// switchFactory builds SW(k) or the oversubscribed SW(k,o).
func switchFactory(args []int) (DimModel, int, error) {
	if len(args) == 2 {
		if args[1] < 1 {
			return nil, 0, fmt.Errorf("switch oversubscription factor must be >= 1, got %d", args[1])
		}
		return OversubscribedSwitch(args[1]), args[0], nil
	}
	return Switch, args[0], nil
}

// torusFactory builds T2D(a,b), one dimension of a*b NPUs.
func torusFactory(args []int) (DimModel, int, error) {
	return Torus2D(args[0], args[1]), args[0] * args[1], nil
}

// blockTable maps every lower-case shape-notation name and alias to its
// block's factory.
var blockTable = map[string]factory{
	"r":               {1, 1, single(Ring)},
	"ring":            {1, 1, single(Ring)},
	"fc":              {1, 1, single(FullyConnected)},
	"fullyconnected":  {1, 1, single(FullyConnected)},
	"fully-connected": {1, 1, single(FullyConnected)},
	"sw":              {1, 2, switchFactory},
	"switch":          {1, 2, switchFactory},
	"m":               {1, 1, single(Mesh)},
	"mesh":            {1, 1, single(Mesh)},
	"t2d":             {2, 2, torusFactory},
	"torus2d":         {2, 2, torusFactory},
	"torus":           {2, 2, torusFactory},
}

// ModelFor resolves a shape-notation block name (case-insensitive) and
// arguments to a model and dimension size. Unknown names and malformed
// arguments are errors — there is no default block.
func ModelFor(name string, args []int) (DimModel, int, error) {
	f, ok := blockTable[strings.ToLower(name)]
	if !ok {
		return nil, 0, fmt.Errorf("unknown building block %q (registered: %s)", name, strings.Join(RegisteredBlocks(), ", "))
	}
	if len(args) < f.minArgs || len(args) > f.maxArgs {
		if f.minArgs == f.maxArgs {
			return nil, 0, fmt.Errorf("block %q takes %d argument(s), got %d", name, f.minArgs, len(args))
		}
		return nil, 0, fmt.Errorf("block %q takes %d to %d arguments, got %d", name, f.minArgs, f.maxArgs, len(args))
	}
	return f.build(args)
}

// RegisteredBlocks lists the accepted notation names, sorted.
func RegisteredBlocks() []string {
	names := make([]string, 0, len(blockTable))
	for n := range blockTable {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// BuiltinModels returns one representative instance of every built-in
// block, for tests that iterate the whole block set. The torus instance is
// sized a=4, b=2 (Dim.Size must be 8); the oversubscribed switch is 4:1.
func BuiltinModels() []DimModel {
	return []DimModel{Ring, FullyConnected, Switch, Mesh, Torus2D(4, 2), OversubscribedSwitch(4)}
}
