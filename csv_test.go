package astrasim

import (
	"bytes"
	"encoding/csv"
	"io"
	"reflect"
	"testing"
	"time"
)

// csvName is a label with a quote, a comma and a backslash: Go's %q
// quoting would make it an invalid CSV field.
const csvName = `fab "A", v2\x`

// checkCSVRecord parses a writer's output with encoding/csv and compares
// its first data record.
func checkCSVRecord(t *testing.T, write func(io.Writer) error, want []string) {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("output is not CSV: %v\n%s", err, buf.String())
	}
	if len(recs) < 2 || !reflect.DeepEqual(recs[1], want) {
		t.Errorf("records = %q, want a header then %q", recs, want)
	}
}

func TestSweepCSVRoundTrip(t *testing.T) {
	res := &SweepResult{Rows: []SweepRow{{
		Machine: csvName, Workload: csvName,
		Report: &Report{Makespan: 1500 * time.Nanosecond, Compute: time.Microsecond, Collectives: 2, Events: 7},
	}}}
	checkCSVRecord(t, res.WriteCSV, []string{csvName, csvName, "1.5", "1", "0", "0", "0", "0", "2", "7"})
}

func TestClusterCSVRoundTrip(t *testing.T) {
	res := &ClusterResult{Jobs: []ClusterJobRow{{
		Job: csvName, Workload: csvName, NPUs: 4, Local: "R(4)", FirstRank: 8,
		Arrival: time.Microsecond, Finish: 3 * time.Microsecond, Slowdown: 1.25,
		Report: &Report{Makespan: 2 * time.Microsecond},
	}}}
	checkCSVRecord(t, res.WriteCSV, []string{csvName, csvName, "4", "R(4)", "8", "1", "3", "2", "0", "0", "1.25"})
}

func TestScenarioCSVRoundTrip(t *testing.T) {
	res := &ScenarioResult{
		Machine: csvName, Workload: csvName, Events: 3,
		Clean:     &Report{Makespan: time.Millisecond},
		Perturbed: &Report{Makespan: 2 * time.Millisecond},
		Slowdown:  2,
	}
	checkCSVRecord(t, res.WriteCSV, []string{"clean", csvName, csvName, "3", "1000", "0", "0", "1"})
}
