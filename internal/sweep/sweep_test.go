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
		Fingerprint: func(pt Point) string {
			return fmt.Sprintf("test|%d|%d", pt.Index("a"), pt.Index("b"))
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

func TestInGridDeduplication(t *testing.T) {
	var ran atomic.Int64
	spec := gridSpec(false, &ran)
	// Fingerprint ignores axis b: each a-row is one work unit.
	spec.Cell = func(pt Point) (int, error) {
		ran.Add(1)
		return pt.Index("a"), nil
	}
	spec.Fingerprint = func(pt Point) string {
		return fmt.Sprintf("dedup|%d", pt.Index("a"))
	}
	for _, workers := range []int{1, 4} {
		ran.Store(0)
		res, err := Run(spec, Exec{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if ran.Load() != 3 {
			t.Errorf("workers=%d: %d executions, want 3 (12 cells, 3 fingerprints)", workers, ran.Load())
		}
		if res.Stats.Executed != 3 || res.Stats.Shared != 9 {
			t.Errorf("workers=%d: stats = %+v, want Executed=3 Shared=9", workers, res.Stats)
		}
		for i, row := range res.Rows {
			if row.Value != i/4 {
				t.Errorf("row %d = %d, want %d", i, row.Value, i/4)
			}
		}
	}
}

func TestEmptyFingerprintNeverShares(t *testing.T) {
	var ran atomic.Int64
	spec := gridSpec(false, &ran)
	spec.Fingerprint = func(Point) string { return "" }
	res, err := Run(spec, Exec{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 12 || res.Stats.Executed != 12 || res.Stats.Shared != 0 {
		t.Errorf("%d executions, stats %+v, want 12 executed and none shared (empty fingerprints opt out)", ran.Load(), res.Stats)
	}
}

func TestErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	spec := gridSpec(true, nil)
	spec.Cell = func(pt Point) (int, error) {
		// Two failing cells; the first in grid order is (a1, b0).
		if pt.Index("a") >= 1 && pt.Index("b") == 0 {
			return 0, boom
		}
		return 0, nil
	}
	for _, workers := range []int{1, 2, 8} {
		_, err := Run(spec, Exec{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
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
		if got := fmt.Sprintf("%v", cerr.Point); got != "[a1 b0]" {
			t.Errorf("workers=%d: reported cell %v, want [a1 b0] (first failure in grid order)", workers, got)
		}
		if !strings.Contains(err.Error(), "a1") {
			t.Errorf("workers=%d: error %q does not name the cell", workers, err)
		}
	}
}

func TestProgressReachesTotal(t *testing.T) {
	var calls int
	var last int
	_, err := Run(gridSpec(false, nil), Exec{
		Workers: 3,
		Progress: func(done, total int) {
			calls++
			if total != 12 {
				t.Errorf("total = %d, want 12", total)
			}
			if done < last {
				t.Errorf("done went backwards: %d after %d", done, last)
			}
			last = done
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if last != 12 {
		t.Errorf("final done = %d, want 12", last)
	}
	if calls == 0 {
		t.Error("progress never called")
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
