package astrasim

// Engine hot-path benchmarks (E8): the discrete-event core's cost per event
// on the chunked All-Reduce path, the workload that dominates every paper
// figure. BenchmarkEngineHotPath sweeps the NPU count from 64 to 32768 on
// the serial engine and writes BENCH_engine.json with ns/event,
// allocs/event, events/sec and bytes allocated per collective (set-up
// included) per scale. Two historical series are
// preserved across runs so the artifact always carries the full
// before/after story: "baseline" (before the zero-allocation rework) and
// "previous" (before the dimension-aggregate rework, whose per-event cost
// grew ~13x from 64 to 1024 NPUs).

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/network"
	"repro/internal/timeline"
	"repro/internal/topology"
	"repro/internal/units"
)

// engineBenchRecord is one row of BENCH_engine.json.
type engineBenchRecord struct {
	NPUs           int     `json:"npus"`
	Topology       string  `json:"topology"`
	EventsPerOp    uint64  `json:"events_per_op"`
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	EventsPerSec   float64 `json:"events_per_sec"`
	BytesPerOp     float64 `json:"bytes_per_op,omitempty"`
}

type engineBenchDoc struct {
	Workload string              `json:"workload"`
	Baseline []engineBenchRecord `json:"baseline"`
	Previous []engineBenchRecord `json:"previous,omitempty"`
	Current  []engineBenchRecord `json:"current"`
}

// engineHotPathTopology builds the benchmark machine at a given scale:
// a three-level hierarchy (intra-board ring, board fully-connected,
// scale-out switch) shaped like the paper's Conv systems.
func engineHotPathTopology(npus int) *topology.Topology {
	return topology.MustNew(
		topology.Dim{Kind: topology.Ring, Size: 4, Bandwidth: units.GBps(250), Latency: 50 * units.Nanosecond},
		topology.Dim{Kind: topology.FullyConnected, Size: 4, Bandwidth: units.GBps(100), Latency: 500 * units.Nanosecond},
		topology.Dim{Kind: topology.Switch, Size: npus / 16, Bandwidth: units.GBps(50), Latency: 2 * units.Microsecond},
	)
}

// BenchmarkEngineHotPath drives the production chunk-phase collective path
// (64-chunk 64 MB All-Reduce) at 64-32768 NPUs and records per-event cost.
func BenchmarkEngineHotPath(b *testing.B) {
	const (
		size   = 64 * units.MB
		chunks = 64
	)
	scales := []int{64, 256, 1024, 4096, 32768}
	recs := make([]engineBenchRecord, len(scales))
	for si, npus := range scales {
		top := engineHotPathTopology(npus)
		b.Run(fmt.Sprintf("npus=%d", npus), func(b *testing.B) {
			b.ReportAllocs()
			var events uint64
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			for i := 0; i < b.N; i++ {
				eng := timeline.New()
				net := network.NewBackend(eng, top)
				ce := collective.NewEngine(net, collective.WithChunks(chunks))
				if err := ce.Start(collective.AllReduce, size, collective.FullMachine(top), nil, nil); err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Run(); err != nil {
					b.Fatal(err)
				}
				events = eng.Fired()
			}
			elapsed := time.Since(start)
			runtime.ReadMemStats(&ms1)
			totalEvents := float64(events) * float64(b.N)
			nsPerEvent := float64(elapsed.Nanoseconds()) / totalEvents
			b.ReportMetric(nsPerEvent, "ns/event")
			// Mallocs includes per-op setup (engine, backend, stats
			// arrays); on a multi-thousand-event run that fixed cost
			// amortizes to noise, so the quotient tracks the hot path.
			allocsPerEvent := float64(ms1.Mallocs-ms0.Mallocs) / totalEvents
			b.ReportMetric(allocsPerEvent, "allocs/event")
			recs[si] = engineBenchRecord{
				NPUs:           npus,
				Topology:       top.String(),
				EventsPerOp:    events,
				NsPerEvent:     nsPerEvent,
				AllocsPerEvent: allocsPerEvent,
				EventsPerSec:   1e9 / nsPerEvent,
				BytesPerOp:     float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(b.N),
			}
		})
	}
	// Sub-benchmarks can be filtered away; only write the artifact when
	// every scale ran, so a partial run never clobbers a full capture.
	for i := range recs {
		if recs[i].NPUs == 0 {
			return
		}
	}
	doc := engineBenchDoc{
		Workload: fmt.Sprintf("all_reduce(%v), %d chunks, R(4)_FC(4)_SW(n/16)", size, chunks),
		Current:  recs,
	}
	// Preserve the historical series: "baseline" and "previous" survive
	// from earlier captures.
	if prev, err := os.ReadFile("BENCH_engine.json"); err == nil {
		var old engineBenchDoc
		if json.Unmarshal(prev, &old) == nil {
			doc.Baseline = old.Baseline
			doc.Previous = old.Previous
		}
	}
	if doc.Baseline == nil {
		doc.Baseline = recs
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_engine.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
