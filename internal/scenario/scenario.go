// Package scenario describes timed infrastructure perturbations — link
// bandwidth degradation and restoration, link and NPU failures, per-NPU
// compute stragglers — injected into a running simulation. ASTRA-sim 2.0
// models clean fabrics; real 32k-NPU jobs run on fabrics where links
// degrade, switches drop and NPUs straggle, so resilience studies need
// failures as first-class timeline events.
//
// A Scenario is a validated, machine-relative event list: dimensions index
// the topology's dimensions, NPUs index ranks. The core simulator applies
// each event at its instant through the network backend's incremental
// mutation hooks (bandwidth scales, link stalls) and its own per-rank
// straggler factors; routing and collectives degrade gracefully —
// stretched flows and slower phases, never panics.
package scenario

import (
	"fmt"

	"repro/internal/units"
)

// Kind is a scenario event type.
type Kind int

const (
	// DegradeLink scales a topology dimension's link bandwidth by Factor
	// (0 < Factor, typically < 1) from At onward.
	DegradeLink Kind = iota
	// RestoreLink returns a dimension's link bandwidth to nominal at At.
	RestoreLink
	// FailLink drops a dimension to FailedLinkResidual × nominal bandwidth
	// at At — the fabric's rerouted protection capacity. Modeling failure
	// as a tiny residual rather than zero keeps every transfer finite, so
	// collectives degrade gracefully instead of deadlocking; Recovery, if
	// positive, restores the dimension after that long.
	FailLink
	// FailNPU stalls every link of one NPU for Recovery of simulated time
	// from At — the rank is unreachable and synchronous collective phases
	// gate on it as their slowest member, which is how a hung rank
	// manifests to the rest of a training job.
	FailNPU
	// StraggleNPU multiplies one NPU's compute times by Factor (> 1 slows)
	// from At onward; Factor 1 clears the straggler.
	StraggleNPU
)

// FailedLinkResidual is the fraction of nominal bandwidth a failed
// dimension retains (protection capacity / rerouting headroom).
const FailedLinkResidual = 0.01

var kindNames = [...]string{
	DegradeLink: "degrade_link",
	RestoreLink: "restore_link",
	FailLink:    "fail_link",
	FailNPU:     "fail_npu",
	StraggleNPU: "straggle_npu",
}

// String returns the kind's canonical spec-file name.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// ParseKind maps a spec-file kind name to its Kind.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if s == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("scenario: unknown event kind %q (want degrade_link|restore_link|fail_link|fail_npu|straggle_npu)", s)
}

// Event is one timed perturbation.
type Event struct {
	// At is the simulated instant the event applies, relative to the run's
	// start.
	At units.Time
	// Kind selects the perturbation.
	Kind Kind
	// Dim is the topology dimension for link events.
	Dim int
	// NPU is the target rank for NPU events.
	NPU int
	// Factor is the bandwidth scale (DegradeLink) or compute-time
	// multiplier (StraggleNPU).
	Factor float64
	// Recovery is the outage duration for FailNPU, and the optional
	// auto-restore delay for FailLink (zero means no auto-restore).
	Recovery units.Time
}

// Scenario is a named, ordered perturbation schedule.
type Scenario struct {
	Name   string
	Events []Event
}

// Validate checks every event against a machine shape (npus ranks, dims
// topology dimensions). It reports the first structural problem; a valid
// scenario can be applied without panicking. No event of any kind may
// carry a negative time, recovery, dimension, NPU or factor. With
// math.MaxInt for both bounds it checks what holds on every machine.
func (s *Scenario) Validate(npus, dims int) error {
	for i, ev := range s.Events {
		where := func(format string, args ...any) error {
			return fmt.Errorf("scenario %q event %d (%s): %s", s.Name, i, ev.Kind, fmt.Sprintf(format, args...))
		}
		switch {
		case ev.At < 0:
			return where("negative time %v", ev.At)
		case ev.Recovery < 0:
			return where("negative recovery %v", ev.Recovery)
		case ev.Dim < 0:
			return where("negative dimension %d", ev.Dim)
		case ev.NPU < 0:
			return where("negative NPU %d", ev.NPU)
		case ev.Factor < 0:
			return where("negative factor %g", ev.Factor)
		}
		switch ev.Kind {
		case DegradeLink:
			if ev.Dim >= dims {
				return where("dimension %d out of range [0,%d)", ev.Dim, dims)
			}
			if ev.Factor <= 0 {
				return where("non-positive bandwidth factor %v", ev.Factor)
			}
		case RestoreLink, FailLink:
			if ev.Dim >= dims {
				return where("dimension %d out of range [0,%d)", ev.Dim, dims)
			}
		case FailNPU:
			if ev.NPU >= npus {
				return where("NPU %d out of range [0,%d)", ev.NPU, npus)
			}
			if ev.Recovery <= 0 {
				return where("fail_npu requires a positive recovery duration")
			}
		case StraggleNPU:
			if ev.NPU >= npus {
				return where("NPU %d out of range [0,%d)", ev.NPU, npus)
			}
			if ev.Factor <= 0 {
				return where("non-positive compute factor %v", ev.Factor)
			}
		default:
			return where("unknown kind")
		}
	}
	return nil
}
