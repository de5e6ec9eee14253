package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/et"
)

// sample is one workload run in one child process: its measurements, the
// bench spans around the layer calls and the digest of its simulated
// results.
type sample struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Traced   bool               `json:"traced"`
	Digest   string             `json:"digest,omitempty"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
	Spans    []span             `json:"spans,omitempty"`
	Err      string             `json:"error,omitempty"`
}

// span is one timed call into a layer, in microseconds since the child
// process was started.
type span struct {
	Name    string             `json:"name"`
	StartUS float64            `json:"start_us"`
	DurUS   float64            `json:"dur_us"`
	Args    map[string]float64 `json:"args,omitempty"`
}

// recorder collects what a workload measures about its own calls.
type recorder struct {
	t0      time.Time
	setup   time.Duration
	spans   []span
	metrics map[string]float64
	// traces are kept to count their nodes once timing has stopped.
	traces []*et.Trace
}

func newRecorder(t0 time.Time) *recorder {
	return &recorder{t0: t0, metrics: make(map[string]float64)}
}

// span times f as the named span and adds its seconds to metric name_s.
func (r *recorder) span(name string, f func() error) error {
	_, err := r.timed(name, f)
	return err
}

// setupSpan is span for work done before the first simulated event.
func (r *recorder) setupSpan(name string, f func() error) error {
	d, err := r.timed(name, f)
	r.setup += d
	return err
}

func (r *recorder) timed(name string, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	d := time.Since(start)
	r.spans = append(r.spans, span{Name: name, StartUS: micros(start.Sub(r.t0)), DurUS: micros(d)})
	r.metrics[name+"_s"] += d.Seconds()
	return d, err
}

func (r *recorder) set(name string, v float64) { r.metrics[name] = v }
func (r *recorder) get(name string) float64    { return r.metrics[name] }

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// measure runs one sample of w in this process. t0 is when the process was
// started, so wall and set-up time include process start and package
// initialisation. With profile set it also takes a CPU profile and
// attributes it to layers.
func measure(w workload, p params, t0 time.Time, profile bool) (*sample, error) {
	var prof bytes.Buffer
	if profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	rec := newRecorder(t0)
	start := time.Now()
	out, err := w.run(p, rec)
	end := time.Now()
	if profile {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, err
	}

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := rec.metrics
	m["wall_s"] = end.Sub(t0).Seconds()
	m["setup_s"] = (start.Sub(t0) + rec.setup).Seconds()
	m["cpu_s"] = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	m["peak_rss_mb"] = float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
	m["alloc_mb"] = float64(ms.TotalAlloc) / 1e6
	m["gc.cycles"] = float64(ms.NumGC)
	m["gc.pause_s"] = float64(ms.PauseTotalNs) / 1e9
	countNodes(rec.traces, m)
	if profile {
		self, err := layerSelfTimes(prof.Bytes())
		if err != nil {
			return nil, err
		}
		for layer, s := range self {
			m[layer+".self_s"] = s
		}
	}

	digest, err := digestOf(out)
	if err != nil {
		return nil, err
	}
	args := make(map[string]float64)
	for k, v := range m {
		args[k] = v
	}
	spans := append([]span{{Name: w.name, StartUS: micros(start.Sub(t0)), DurUS: micros(end.Sub(start)), Args: args}}, rec.spans...)
	return &sample{Workload: w.name, Seed: p.seed, Traced: profile, Digest: digest, Metrics: m, Spans: spans}, nil
}

// countNodes adds the trace-size counters: every node, the per-NPU
// collective nodes core rendezvouses, and the point-to-point nodes.
func countNodes(traces []*et.Trace, m map[string]float64) {
	for _, tr := range traces {
		for _, g := range tr.Graphs {
			m["et.nodes"] += float64(len(g.Nodes))
			for _, n := range g.Nodes {
				switch n.Kind {
				case et.KindComm:
					m["core.collective_issues"]++
				case et.KindSend, et.KindRecv:
					m["core.p2p_nodes"]++
				}
			}
		}
	}
}

// digestOf is the SHA-256 of v's canonical JSON (encoding/json sorts map
// keys and prints floats in their shortest exact form).
func digestOf(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:]), nil
}
