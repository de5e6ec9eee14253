// Package sweep is the scenario-sweep engine behind every reproduced
// figure and table: a declarative grid of named axes whose cells are
// simulator configurations, executed by a worker pool and assembled into
// deterministically ordered rows.
//
// Three properties make the engine a first-class primitive rather than a
// parallel for-loop:
//
//   - Determinism: rows come back in row-major axis order and every
//     exported byte is identical whatever the worker count, because each
//     cell's result is written to its pre-assigned slot.
//   - Deduplication: cells that declare equal content fingerprints are
//     simulated once (a user grid that lists a machine twice); a caller
//     that asks for the same fingerprints again in a later sweep, as a
//     search's exhaustive pass does after its halving pass, can share
//     results through an optional Cache keyed by fingerprint.
//   - Structure: rows carry their axis labels in grid order, ready for a
//     caller to tabulate or marshal, and a progress callback reports
//     completion as cells finish.
package sweep

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Axis is one named dimension of a sweep grid. Values are display labels;
// cell functions receive the value's index and look up their own typed
// configuration.
type Axis struct {
	Name   string
	Values []string
}

// Point identifies one cell: an index into every axis.
type Point struct {
	axes []Axis
	idx  []int
}

// Index returns the value index of the named axis; it panics on an
// unknown axis name (a programming error in the spec).
func (p Point) Index(axis string) int {
	for i, ax := range p.axes {
		if ax.Name == axis {
			return p.idx[i]
		}
	}
	panic(fmt.Sprintf("sweep: point has no axis %q", axis))
}

// Value returns the value label of the named axis.
func (p Point) Value(axis string) string {
	for i, ax := range p.axes {
		if ax.Name == axis {
			return ax.Values[p.idx[i]]
		}
	}
	panic(fmt.Sprintf("sweep: point has no axis %q", axis))
}

// Values returns the cell's value labels in axis order.
func (p Point) Values() []string {
	out := make([]string, len(p.axes))
	for i, ax := range p.axes {
		out[i] = ax.Values[p.idx[i]]
	}
	return out
}

// Spec declares a sweep: named axes and a cell function evaluated at
// every point of their cross product.
type Spec[T any] struct {
	// Name labels the sweep in errors and exports.
	Name string
	// Axes span the grid; the cross product is enumerated row-major
	// (last axis fastest), which is also the row order of the result.
	Axes []Axis
	// Cell evaluates one grid point. It must be safe for concurrent
	// calls; every reproduced experiment satisfies this because each run
	// builds a fresh simulator.
	Cell func(pt Point) (T, error)
	// Fingerprint, when non-nil, returns a canonical description of the
	// cell's full configuration. Cells with equal fingerprints are
	// assumed identical: within a grid they are simulated once, and
	// across grids they share results through Exec.Cache. An empty
	// string opts the cell out (never shared, never cached) — used for
	// wall-clock measurements that must actually run.
	Fingerprint func(pt Point) string
}

// Exec controls how a sweep executes.
type Exec struct {
	// Workers is the worker-pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Cache, when non-nil, shares results between sweeps whose cells
	// have equal fingerprints.
	Cache *Cache
	// Progress, when non-nil, is called after each cell completes with
	// the number of finished cells and the grid total. Calls are
	// serialized but arrive in completion order, which under parallel
	// execution is not the row order.
	Progress func(done, total int)
}

// Stats summarizes how a sweep's cells were obtained.
type Stats struct {
	// Cells is the grid size (product of axis lengths).
	Cells int
	// Executed counts cells whose simulation actually ran.
	Executed int
	// Shared counts cells served by an identical cell in the same grid.
	Shared int
	// CacheHits counts cells served from the cross-sweep cache.
	CacheHits int
	// Wall is the sweep's wall-clock duration.
	Wall time.Duration
}

// Row is one result: the identifying axis values and the cell's value.
type Row[T any] struct {
	// Point holds the axis value labels in axis order.
	Point []string
	// Value is the cell function's result.
	Value T
}

// Results holds a completed sweep in deterministic row-major order.
type Results[T any] struct {
	Name  string
	Axes  []Axis
	Rows  []Row[T]
	Stats Stats
}

// Values returns the row values in grid order.
func (r *Results[T]) Values() []T {
	out := make([]T, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = row.Value
	}
	return out
}

// FormatFloat renders an axis value for a numeric grid: the shortest
// representation that round-trips, shared by sweep builders so axis
// labels stay canonical.
func FormatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// FormatInt renders an integer axis value.
func FormatInt(v int) string { return strconv.Itoa(v) }

// CellError reports the first failing cell in grid order.
type CellError struct {
	Sweep string
	Point []string
	Err   error
}

func (e *CellError) Error() string {
	return fmt.Sprintf("sweep %s: cell %v: %v", e.Sweep, e.Point, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// group is one unit of work: all grid cells sharing a fingerprint.
type group struct {
	fp      string
	indices []int // grid indices in ascending order
}

// Run executes the sweep. Results are independent of the worker count:
// parallel output is byte-identical to serial. On failure Run returns the
// error of the first failing cell in grid order (also deterministic:
// cells are dispatched in order, so no cell before the reported one can
// have failed unnoticed).
func Run[T any](spec Spec[T], exec Exec) (*Results[T], error) {
	start := time.Now()
	if spec.Cell == nil {
		return nil, fmt.Errorf("sweep %s: nil Cell", spec.Name)
	}
	if len(spec.Axes) == 0 {
		return nil, fmt.Errorf("sweep %s: no axes", spec.Name)
	}
	total := 1
	for _, ax := range spec.Axes {
		if ax.Name == "" {
			return nil, fmt.Errorf("sweep %s: unnamed axis", spec.Name)
		}
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("sweep %s: axis %s has no values", spec.Name, ax.Name)
		}
		total *= len(ax.Values)
	}

	// Enumerate the grid row-major and coalesce cells by fingerprint.
	points := make([]Point, total)
	counter := make([]int, len(spec.Axes))
	var groups []group
	byFP := make(map[string]int)
	for i := 0; i < total; i++ {
		idx := make([]int, len(counter))
		copy(idx, counter)
		points[i] = Point{axes: spec.Axes, idx: idx}
		var fp string
		if spec.Fingerprint != nil {
			fp = spec.Fingerprint(points[i])
		}
		if fp == "" {
			groups = append(groups, group{indices: []int{i}})
		} else if gi, ok := byFP[fp]; ok {
			groups[gi].indices = append(groups[gi].indices, i)
		} else {
			byFP[fp] = len(groups)
			groups = append(groups, group{fp: fp, indices: []int{i}})
		}
		for d := len(counter) - 1; d >= 0; d-- {
			counter[d]++
			if counter[d] < len(spec.Axes[d].Values) {
				break
			}
			counter[d] = 0
		}
	}

	workers := exec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(groups) {
		workers = len(groups)
	}

	var (
		values   = make([]T, total)
		errs     = make([]error, len(groups))
		failed   atomic.Bool
		executed atomic.Int64
		hits     atomic.Int64
		done     int
		doneMu   sync.Mutex
	)
	runGroup := func(gi int) {
		g := groups[gi]
		pt := points[g.indices[0]]
		var val T
		fromCache := false
		if g.fp != "" && exec.Cache != nil {
			if v, ok := exec.Cache.lookup(g.fp); ok {
				if tv, ok := v.(T); ok {
					val, fromCache = tv, true
				}
			}
		}
		if !fromCache {
			var err error
			val, err = spec.Cell(pt)
			if err != nil {
				errs[gi] = &CellError{Sweep: spec.Name, Point: pt.Values(), Err: err}
				failed.Store(true)
				return
			}
			executed.Add(1)
			if g.fp != "" && exec.Cache != nil {
				exec.Cache.store(g.fp, val)
			}
		} else {
			hits.Add(int64(len(g.indices)))
		}
		for _, i := range g.indices {
			values[i] = val
		}
		if exec.Progress != nil {
			doneMu.Lock()
			done += len(g.indices)
			exec.Progress(done, total)
			doneMu.Unlock()
		}
	}

	if workers <= 1 {
		for gi := range groups {
			runGroup(gi)
			if failed.Load() {
				break
			}
		}
	} else {
		// Dispatch groups in grid order; once a cell fails, stop feeding
		// so in-flight work drains quickly.
		ch := make(chan int)
		go func() {
			for gi := range groups {
				if failed.Load() {
					break
				}
				ch <- gi
			}
			close(ch)
		}()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for gi := range ch {
					runGroup(gi)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := &Results[T]{
		Name: spec.Name,
		Axes: spec.Axes,
		Rows: make([]Row[T], total),
		Stats: Stats{
			Cells:     total,
			Executed:  int(executed.Load()),
			CacheHits: int(hits.Load()),
			Wall:      time.Since(start),
		},
	}
	res.Stats.Shared = total - res.Stats.Executed - res.Stats.CacheHits
	for i := range points {
		res.Rows[i] = Row[T]{Point: points[i].Values(), Value: values[i]}
	}
	return res, nil
}
