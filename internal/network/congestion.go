package network

// First-order congestion modeling — the paper's stated future work
// (Section IV-C, footnote 5: "Implementing first-order congestion modeling
// into the analytical backend is our future work"). When enabled, messages
// charge every NPU link they transit, not just the endpoints, so multi-hop
// point-to-point traffic (e.g. strided pipeline stages or non-neighbour
// sends) contends with traffic at intermediate NPUs. The default remains
// endpoint-only charging, which is exact for the congestion-free
// topology-aware collectives the paper targets.
//
// Which positions a message transits is a dimension-model decision
// (TransitPositions): rings charge the shortest wrap path, meshes the
// straight line, tori the dimension-ordered per-axis rings; switch and
// fully-connected blocks have no NPU transit path (fabric hops are folded
// into the hop latency) and keep endpoint charging.

// SetTransitCharging enables or disables first-order transit congestion.
func (b *Backend) SetTransitCharging(on bool) { b.chargeTransit = on }
