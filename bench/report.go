package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// stat summarises one metric over a workload's samples. High is the
// highest percentile with at least ten samples beyond it, reported only
// once there are enough samples for it to lie above the median.
type stat struct {
	Median  float64 `json:"median"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	N       int     `json:"n"`
	HighPct float64 `json:"high_pct,omitempty"`
	High    float64 `json:"high,omitempty"`
}

func summarize(vals []float64) stat {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	st := stat{Min: s[0], Max: s[n-1], N: n, Median: s[n/2]}
	if n%2 == 0 {
		st.Median = (s[n/2-1] + s[n/2]) / 2
	}
	if n >= 20 {
		st.HighPct, st.High = 100*float64(n-10)/float64(n), s[n-11]
	}
	return st
}

// workloadReport is everything one workload's samples showed.
type workloadReport struct {
	Name string `json:"name"`
	Seed int64  `json:"seed"`
	// Digest is the first successful sample's; Expected is the committed
	// digest it must match, where one applies to this seed.
	Digest    string `json:"digest"`
	Expected  string `json:"expected,omitempty"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Untraced summarises the samples run without a profile, Traced those
	// run with one (including the per-layer self times and shares).
	Untraced map[string]stat `json:"untraced"`
	Traced   map[string]stat `json:"traced,omitempty"`
	Samples  []*sample       `json:"samples"`
}

// report is one invocation's result; -out writes it and -compare reads it.
type report struct {
	Seed      int64             `json:"seed"`
	Workloads []*workloadReport `json:"workloads"`
}

// finish checks digests and computes the summaries. A sample fails when it
// errored or its digest differs from the other samples' or from expected.
func (wr *workloadReport) finish(expected string) {
	wr.Expected, wr.Digest = expected, ""
	wr.Attempted, wr.Failed = len(wr.Samples), 0
	untraced, traced := map[string][]float64{}, map[string][]float64{}
	for _, s := range wr.Samples {
		if s.Err != "" {
			wr.Failed++
			continue
		}
		if wr.Digest == "" {
			wr.Digest = s.Digest
		}
		if s.Digest != wr.Digest || (expected != "" && s.Digest != expected) {
			wr.Failed++
		}
		m := make(map[string]float64, len(s.Metrics)+2)
		for k, v := range s.Metrics {
			m[k] = v
		}
		if ev, run := m["timeline.events"], m["timeline.run_s"]; ev > 0 && run > 0 {
			m["events_per_s"] = ev / run
			m["timeline.ns_per_event"] = run / ev * 1e9
		}
		dst := untraced
		if s.Traced {
			dst = traced
		}
		for k, v := range m {
			dst[k] = append(dst[k], v)
		}
	}
	wr.Untraced = summarizeAll(untraced)
	if len(traced) == 0 {
		return
	}
	wr.Traced = summarizeAll(traced)
	// Shares come from the summed profiles, so they add up to 1.
	total := 0.0
	for _, l := range layers {
		for _, v := range traced[l+".self_s"] {
			total += v
		}
	}
	for _, l := range layers {
		sum := 0.0
		for _, v := range traced[l+".self_s"] {
			sum += v
		}
		if total > 0 {
			wr.Traced[l+".share"] = stat{Median: sum / total, Min: sum / total, Max: sum / total, N: len(traced[l+".self_s"])}
		}
	}
	if u, t := wr.Untraced["wall_s"], wr.Traced["wall_s"]; u.N > 0 && t.N > 0 {
		pct := 100 * (t.Median - u.Median) / u.Median
		wr.Traced["trace.overhead_pct"] = stat{Median: pct, Min: pct, Max: pct, N: t.N}
	}
}

func summarizeAll(vals map[string][]float64) map[string]stat {
	out := make(map[string]stat, len(vals))
	for k, v := range vals {
		out[k] = summarize(v)
	}
	return out
}

// resultLine is the one-line JSON summary printed last: the end-to-end
// metrics, or with tracing the per-layer ones. With several workloads the
// metric names are prefixed with the workload's.
func resultLine(rep *report, traced bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	defs, pick := endToEnd, func(wr *workloadReport) map[string]stat { return wr.Untraced }
	if traced {
		defs, pick = perLayer, func(wr *workloadReport) map[string]stat { return wr.Traced }
	}
	for _, wr := range rep.Workloads {
		line.Attempted += wr.Attempted
		line.Failed += wr.Failed
		prefix := ""
		if len(rep.Workloads) > 1 {
			prefix = wr.Name + "/"
		}
		for _, d := range defs {
			line.Metrics[prefix+d.Name] = value{pick(wr)[d.Name].Median, d.Unit}
		}
	}
	line.Correct = line.Failed == 0 && line.Attempted > 0
	return json.Marshal(line)
}

// printReport writes the human-readable tables.
func printReport(w io.Writer, rep *report) {
	for _, wr := range rep.Workloads {
		check := "no committed digest for this seed"
		if wr.Expected != "" {
			check = "matches testdata/expected.json"
			if wr.Digest != wr.Expected {
				check = "DIFFERS from testdata/expected.json " + short(wr.Expected)
			}
		}
		fmt.Fprintf(w, "\n%s  seed %d  digest %s (%s)\n", wr.Name, wr.Seed, short(wr.Digest), check)
		fmt.Fprintf(w, "  failed_frac = %.4f (%d of %d samples)\n", frac(wr.Failed, wr.Attempted), wr.Failed, wr.Attempted)
		printTable(w, "end to end, untraced", wr.Untraced, append(append([]metricDef(nil), endToEnd...), untracedExtras...))
		if wr.Traced != nil {
			printTable(w, "per layer, traced", wr.Traced, layerMetrics)
		}
	}
}

func printTable(w io.Writer, title string, stats map[string]stat, defs []metricDef) {
	fmt.Fprintf(w, "  %-30s %-8s %14s %14s %14s %4s\n", title, "unit", "median", "min", "max", "n")
	for _, d := range defs {
		st, ok := stats[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-30s %-8s %14.6g %14.6g %14.6g %4d", d.Name, d.Unit, st.Median, st.Min, st.Max, st.N)
		if st.HighPct > 0 {
			fmt.Fprintf(w, "  p%.0f %.6g", st.HighPct, st.High)
		}
		fmt.Fprintln(w)
	}
}

func short(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// writeTrace writes the traced run's outputs: trace.json, every sample's
// bench spans as a Chrome trace (one process row per sample, counters as
// span args), and layers.json, the per-layer medians of every workload.
func writeTrace(dir string, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var events []map[string]any
	pid := 0
	for _, wr := range rep.Workloads {
		for _, s := range wr.Samples {
			pid++
			mode := "untraced"
			if s.Traced {
				mode = "traced"
			}
			events = append(events, map[string]any{
				"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
				"args": map[string]string{"name": fmt.Sprintf("%s #%d (%s)", s.Workload, pid, mode)},
			})
			for _, sp := range s.Spans {
				events = append(events, map[string]any{
					"name": sp.Name, "cat": "bench", "ph": "X", "pid": pid, "tid": 0,
					"ts": sp.StartUS, "dur": sp.DurUS, "args": sp.Args,
				})
			}
		}
	}
	if err := writeJSON(filepath.Join(dir, "trace.json"), map[string]any{"traceEvents": events}); err != nil {
		return err
	}

	type layerValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
		N     int     `json:"n"`
	}
	out := map[string]map[string]layerValue{}
	for _, wr := range rep.Workloads {
		m := map[string]layerValue{}
		for _, d := range layerMetrics {
			if st, ok := wr.Traced[d.Name]; ok {
				m[d.Name] = layerValue{st.Median, d.Unit, st.N}
			}
		}
		out[wr.Name] = m
	}
	return writeJSON(filepath.Join(dir, "layers.json"), out)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareReports prints each end-to-end metric's median change from a to b
// per workload against its bound, and returns the number of violations:
// metrics worse by more than their bound (and, for times, by more than
// timeFloor seconds), and digests that differ for the same seed.
func compareReports(w io.Writer, a, b *report) int {
	bad := 0
	fmt.Fprintf(w, "%-16s %-14s %14s %14s %9s %7s  %s\n", "workload", "metric", "A median", "B median", "worse by", "bound", "verdict")
	for _, wb := range b.Workloads {
		var wa *workloadReport
		for _, x := range a.Workloads {
			if x.Name == wb.Name {
				wa = x
			}
		}
		if wa == nil {
			fmt.Fprintf(w, "%-16s only in B\n", wb.Name)
			continue
		}
		if wa.Seed == wb.Seed && wa.Digest != wb.Digest {
			bad++
			fmt.Fprintf(w, "%-16s %-14s %14s %14s %9s %7s  REGRESSION\n", wb.Name, "digest", short(wa.Digest), short(wb.Digest), "", "")
		}
		for _, d := range endToEnd {
			sa, sb := wa.Untraced[d.Name], wb.Untraced[d.Name]
			if sa.N == 0 || sb.N == 0 {
				continue
			}
			change := d.worse(sa.Median, sb.Median)
			verdict := "ok"
			if change > d.Bound && !(d.Unit == "s" && math.Abs(sb.Median-sa.Median) <= timeFloor) {
				verdict = "REGRESSION"
				bad++
			}
			fmt.Fprintf(w, "%-16s %-14s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n", wb.Name, d.Name, sa.Median, sb.Median, 100*change, 100*d.Bound, verdict)
		}
	}
	return bad
}
