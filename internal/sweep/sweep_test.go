package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// gridSpec builds a 3x4 grid whose cell values are a pure function of the
// point, with an optional artificial stagger so parallel completion order
// scrambles relative to grid order.
func gridSpec(stagger bool, ran *atomic.Int64) Spec[int] {
	return Spec[int]{
		Name: "test",
		Axes: []Axis{
			{Name: "a", Values: []string{"a0", "a1", "a2"}},
			{Name: "b", Values: []string{"b0", "b1", "b2", "b3"}},
		},
		Cell: func(pt Point) (int, error) {
			if ran != nil {
				ran.Add(1)
			}
			if stagger {
				// Later cells finish sooner.
				time.Sleep(time.Duration(12-pt.Index("a")*4-pt.Index("b")) * time.Millisecond)
			}
			return pt.Index("a")*100 + pt.Index("b"), nil
		},
	}
}

func TestRowMajorOrder(t *testing.T) {
	res, err := Run(gridSpec(false, nil), Exec{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("got %d rows, want 12", len(res.Rows))
	}
	// Row-major: last axis fastest.
	want := []int{0, 1, 2, 3, 100, 101, 102, 103, 200, 201, 202, 203}
	for i, row := range res.Rows {
		if row.Value != want[i] {
			t.Errorf("row %d = %d, want %d (point %v)", i, row.Value, want[i], row.Point)
		}
	}
	if got := res.Rows[5].Point; got[0] != "a1" || got[1] != "b1" {
		t.Errorf("row 5 point = %v, want [a1 b1]", got)
	}
}

func TestParallelByteIdenticalToSerial(t *testing.T) {
	ref, err := Run(gridSpec(true, nil), Exec{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ref.Rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 64} {
		res, err := Run(gridSpec(true, nil), Exec{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(res.Rows)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("workers=%d: rows differ from serial", workers)
		}
	}
}

func TestErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	// Two failing cells; the first in grid order is (a1, b0), the fifth.
	two := gridSpec(true, nil)
	two.Cell = func(pt Point) (int, error) {
		ran.Add(1)
		if pt.Index("a") >= 1 && pt.Index("b") == 0 {
			return 0, boom
		}
		return 0, nil
	}
	// Every cell from the third on fails, so workers race to fail on later
	// cells while an earlier failing one is still in hand; repeated runs
	// give the race its chances.
	values := make([]string, 64)
	for i := range values {
		values[i] = fmt.Sprint(i)
	}
	many := Spec[int]{
		Name: "test",
		Axes: []Axis{{Name: "i", Values: values}},
		Cell: func(pt Point) (int, error) {
			ran.Add(1)
			if pt.Index("i") >= 2 {
				return 0, boom
			}
			return 0, nil
		},
	}
	for _, c := range []struct {
		spec   Spec[int]
		reps   int
		want   string // the first failing cell in grid order
		serial int64  // cells one worker runs: none past the first failure
	}{{two, 1, "[a1 b0]", 5}, {many, 200, "[2]", 3}} {
		for _, workers := range []int{1, 2, 8, 32} {
			for rep := 0; rep < c.reps; rep++ {
				ran.Store(0)
				_, err := Run(c.spec, Exec{Workers: workers})
				if err == nil {
					t.Fatalf("workers=%d: no error", workers)
				}
				if workers == 1 && ran.Load() != c.serial {
					t.Errorf("workers=1: ran %d cells, want %d", ran.Load(), c.serial)
				}
				if !errors.Is(err, boom) {
					t.Errorf("workers=%d: error %v does not wrap cause", workers, err)
				}
				var cerr *CellError
				if !errors.As(err, &cerr) {
					t.Fatalf("workers=%d: error %T is not a CellError", workers, err)
				}
				if cerr.Sweep != "test" {
					t.Errorf("workers=%d: error sweep = %q", workers, cerr.Sweep)
				}
				if got := fmt.Sprintf("%v", cerr.Point); got != c.want {
					t.Fatalf("workers=%d rep %d: reported cell %v, want %s (first failure in grid order)", workers, rep, got, c.want)
				}
				if !strings.Contains(err.Error(), cerr.Point[0]) {
					t.Errorf("workers=%d: error %q does not name the cell", workers, err)
				}
			}
		}
	}
}

// TestProgressReachesTotal runs a grid whose rows each repeat one
// configuration: every cell still runs once, and progress counts each to
// (12, 12).
func TestProgressReachesTotal(t *testing.T) {
	var ran atomic.Int64
	spec := gridSpec(false, nil)
	spec.Cell = func(pt Point) (int, error) {
		ran.Add(1)
		return pt.Index("a"), nil
	}
	for _, workers := range []int{1, 2, 8, 64} {
		ran.Store(0)
		var calls, last, lastTotal int
		res, err := Run(spec, Exec{
			Workers: workers,
			Progress: func(done, total int) {
				calls++
				if done < last {
					t.Errorf("workers=%d: done went backwards: %d after %d", workers, done, last)
				}
				last, lastTotal = done, total
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if ran.Load() != 12 || calls != 12 {
			t.Errorf("workers=%d: %d Cell calls and %d progress calls, want 12 of each (one per cell)", workers, ran.Load(), calls)
		}
		if last != 12 || lastTotal != 12 {
			t.Errorf("workers=%d: progress ended at (%d, %d), want (12, 12)", workers, last, lastTotal)
		}
		for i, row := range res.Rows {
			if row.Value != i/4 {
				t.Errorf("workers=%d: row %d = %d, want %d", workers, i, row.Value, i/4)
			}
		}
	}
}

func TestSpecValidation(t *testing.T) {
	if _, err := Run(Spec[int]{Name: "x", Axes: []Axis{{Name: "a", Values: []string{"v"}}}}, Exec{}); err == nil {
		t.Error("nil Cell accepted")
	}
	cell := func(Point) (int, error) { return 0, nil }
	if _, err := Run(Spec[int]{Name: "x", Cell: cell}, Exec{}); err == nil {
		t.Error("empty axes accepted")
	}
	if _, err := Run(Spec[int]{Name: "x", Cell: cell, Axes: []Axis{{Name: "", Values: []string{"v"}}}}, Exec{}); err == nil {
		t.Error("unnamed axis accepted")
	}
	if _, err := Run(Spec[int]{Name: "x", Cell: cell, Axes: []Axis{{Name: "a"}}}, Exec{}); err == nil {
		t.Error("empty axis accepted")
	}
}
