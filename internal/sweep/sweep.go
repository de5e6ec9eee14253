// Package sweep is the scenario-sweep engine behind every reproduced
// figure and table: a declarative grid of named axes whose cells are
// simulator configurations, executed by a worker pool and assembled into
// deterministically ordered rows.
//
// Two properties make the engine a first-class primitive rather than a
// parallel for-loop:
//
//   - Determinism: rows come back in row-major axis order and every
//     exported byte is identical whatever the worker count, because each
//     cell's result is written to its pre-assigned slot.
//   - Structure: rows carry their axis labels in grid order, ready for a
//     caller to tabulate or marshal, and a progress callback reports
//     completion as cells finish.
//
// Every cell runs exactly once: a grid that lists a configuration twice
// simulates it twice.
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
}

// Exec controls how a sweep executes.
type Exec struct {
	// Workers is the worker-pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Cache is ignored.
	//
	// Deprecated: Run shares no results, within a sweep or across sweeps.
	Cache *Cache
	// Progress, when non-nil, is called after each cell completes with
	// the number of finished cells and the grid total. Calls are
	// serialized but arrive in completion order, which under parallel
	// execution is not the row order.
	Progress func(done, total int)
}

// Stats summarizes a sweep run.
type Stats struct {
	// Cells is the grid size (product of axis lengths), which is also the
	// number of Cell calls of a sweep that succeeds.
	Cells int
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

// Run executes every cell of the sweep once, on a pool of exec.Workers
// goroutines. Results are independent of the worker count: every count
// gives byte-identical output. On failure Run returns the error of the
// first failing cell in grid order (also deterministic: cells are
// dispatched in order, so no cell before the reported one can have failed
// unnoticed).
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

	// Enumerate the grid row-major: last axis fastest.
	points := make([]Point, total)
	counter := make([]int, len(spec.Axes))
	for i := range points {
		idx := make([]int, len(counter))
		copy(idx, counter)
		points[i] = Point{axes: spec.Axes, idx: idx}
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
	if workers > total {
		workers = total
	}

	var (
		values = make([]T, total)
		errs   = make([]error, total)
		// firstFail is the lowest index of a failed cell, total while none
		// has failed. It only falls.
		firstFail atomic.Int64
		done      int
		doneMu    sync.Mutex
	)
	firstFail.Store(int64(total))
	runCell := func(i int) {
		val, err := spec.Cell(points[i])
		if err != nil {
			errs[i] = &CellError{Sweep: spec.Name, Point: points[i].Values(), Err: err}
			for {
				f := firstFail.Load()
				if int64(i) >= f || firstFail.CompareAndSwap(f, int64(i)) {
					break
				}
			}
			return
		}
		values[i] = val
		if exec.Progress != nil {
			doneMu.Lock()
			done++
			exec.Progress(done, total)
			doneMu.Unlock()
		}
	}

	// Workers take cells in grid order from one counter and stop at the
	// first cell past the grid or past a failure, so in-flight work drains
	// quickly and one worker runs no cell past the first failure. A cell
	// before the lowest failure is never skipped, so its error is never
	// lost.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= firstFail.Load() {
					return
				}
				runCell(int(i))
			}
		}()
	}
	wg.Wait()
	if f := firstFail.Load(); f < int64(total) {
		return nil, errs[f]
	}

	res := &Results[T]{
		Name:  spec.Name,
		Axes:  spec.Axes,
		Rows:  make([]Row[T], total),
		Stats: Stats{Cells: total, Wall: time.Since(start)},
	}
	for i := range points {
		res.Rows[i] = Row[T]{Point: points[i].Values(), Value: values[i]}
	}
	return res, nil
}
