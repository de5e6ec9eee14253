package main

// metricDef describes one reported metric. BENCHMARK.json lists the
// endToEnd and perLayer tables verbatim; a test keeps the two in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the baseline median an end-to-end metric may
	// worsen by before -compare reports a regression.
	Bound float64 `json:"bound,omitempty"`
}

// endToEnd metrics are measured with tracing off. Every workload reports
// all of them, and none is ever 0. The host times get 25% bounds: on a
// shared 2-core VM the median of one run drifts by 10-15% (interquartile
// range over ten runs) as the host's load changes over minutes, while
// memory use repeats to within a few percent.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"alloc_mb", "MB", "lower", 0.05},
}

// timeFloor is the absolute change in seconds below which -compare never
// reports a time regression, however large the relative change.
const timeFloor = 0.05

// perLayer metrics come from the traced run and are reported for every
// workload: a counter is 0 where its layer does no work, and the self
// times listed are those of layers every workload runs.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range []string{"timeline", "network", "core", "et", "topology", "gc"} {
		defs = append(defs, metricDef{Name: l + ".self_s", Unit: "s", Better: "lower"})
	}
	for _, l := range layers {
		defs = append(defs, metricDef{Name: l + ".share", Unit: "fraction", Better: "lower"})
	}
	return append(defs,
		metricDef{"gc.cycles", "count", "lower", 0},
		metricDef{"gc.pause_s", "s", "lower", 0},
		metricDef{"timeline.events", "count", "lower", 0},
		metricDef{"et.nodes", "count", "lower", 0},
		metricDef{"core.collective_issues", "count", "lower", 0},
		metricDef{"core.p2p_nodes", "count", "lower", 0},
		metricDef{"collective.memo_hits", "count", "higher", 0},
		metricDef{"collective.memo_misses", "count", "lower", 0},
		metricDef{"sweep.cache_hits", "count", "higher", 0},
		metricDef{"sweep.cache_misses", "count", "lower", 0},
		metricDef{"search.simulations", "count", "lower", 0},
		metricDef{"search.estimates", "count", "lower", 0},
		metricDef{"experiments.fig4_err_pct", "%", "lower", 0},
		metricDef{"trace.overhead_pct", "%", "lower", 0},
	)
}()

// layerDetail metrics exist only on the workloads that run the layer. They
// are printed and written to layers.json, but left out of the result line,
// where a metric must have a measured value on every workload.
var layerDetail = func() []metricDef {
	var defs []metricDef
	for _, l := range []string{"collective", "etgen", "cluster", "sweep", "search", "garnet", "other"} {
		defs = append(defs, metricDef{Name: l + ".self_s", Unit: "s", Better: "lower"})
	}
	defs = append(defs,
		metricDef{"etgen.build_s", "s", "lower", 0},
		metricDef{"core.start_s", "s", "lower", 0},
		metricDef{"timeline.run_s", "s", "lower", 0},
		metricDef{"timeline.ns_per_event", "ns", "lower", 0},
		metricDef{"cluster.run_s", "s", "lower", 0},
		metricDef{"cluster.jobs", "count", "higher", 0},
	)
	for _, e := range paperExperiments {
		defs = append(defs, metricDef{Name: "experiments." + e.name + "_s", Unit: "s", Better: "lower"})
	}
	return defs
}()

// layerMetrics is every traced-run metric, in print order.
var layerMetrics = append(append([]metricDef(nil), perLayer...), layerDetail...)

// untracedExtras are printed beside the end-to-end metrics where a
// workload has them.
var untracedExtras = []metricDef{
	{"events_per_s", "1/s", "higher", 0},
	{"experiments.fig4_err_pct", "%", "lower", 0},
}

// worse returns how much b is worse than a, as a share of a (negative when
// b is better).
func (d metricDef) worse(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}
