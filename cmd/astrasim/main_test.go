package main

import (
	"strings"
	"testing"
)

// A non-positive -size is refused for a collective with an error naming the
// flag, where the workload spec would read 0 as its 1 GiB default; a
// positive size is the collective's payload, and workloads that ignore
// -size ignore a zero one too.
func TestPickWorkloadRefusesNonPositiveSize(t *testing.T) {
	for _, size := range []int64{0, -1} {
		if _, err := pickWorkload("all_reduce", size, "", false); err == nil || !strings.Contains(err.Error(), "-size") {
			t.Errorf("-size %d: err = %v, want an error naming -size", size, err)
		}
		if _, err := pickWorkload("gpt3", size, "", false); err != nil {
			t.Errorf("gpt3 -size %d: %v, want -size ignored", size, err)
		}
		if _, err := pickWorkload("all_reduce", size, "t.json", false); err != nil {
			t.Errorf("-trace t.json -size %d: %v, want -size ignored", size, err)
		}
	}
	w, err := pickWorkload("all_reduce", 1024, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Name(); got != "all_reduce(1024)" {
		t.Errorf("-size 1024 runs %s, want all_reduce(1024)", got)
	}
}
