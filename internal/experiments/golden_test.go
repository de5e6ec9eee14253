package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The golden-output regression suite: every experiment's structured result
// is serialized to canonical JSON and diffed byte-for-byte against a
// committed fixture, so engine refactors cannot silently drift the paper
// artifacts. PR 4 verified byte-identical outputs by hand; this locks the
// property in.
//
// Regenerate fixtures after an intentional model change with
//
//	go test ./internal/experiments -run TestGolden -update
//
// and review the fixture diff like any other code change.

var updateGolden = flag.Bool("update", false, "rewrite the golden fixtures under testdata/golden")

type goldenCase struct {
	name string
	// short marks fixtures cheap enough for -short runs; the heavy grids
	// still run under plain `go test` and in CI's race job.
	short bool
	run   func() (any, error)
}

func goldenCases() []goldenCase {
	// Each case builds its own Options so fixtures are independent of test
	// execution order; worker count does not affect results.
	return []goldenCase{
		{"fig4", true, func() (any, error) { return Fig4(Options{}) }},
		{"tableiv", true, func() (any, error) { return TableIV(Options{}) }},
		{"ablation", true, func() (any, error) { return Ablation(Options{Reduced: true}) }},
		{"fabrics_reduced", false, func() (any, error) { return Fabrics(Options{Reduced: true}) }},
		{"interference_reduced", false, func() (any, error) { return Interference(Options{Reduced: true}) }},
		{"resilience_reduced", false, func() (any, error) { return Resilience(Options{Reduced: true}) }},
		{"search_reduced", true, func() (any, error) { return FabricSearch(Options{Reduced: true}) }},
	}
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".json")
}

func TestGolden(t *testing.T) {
	for _, c := range goldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && !c.short {
				t.Skipf("%s golden runs a heavy grid; covered by the full suite and CI", c.name)
			}
			res, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := goldenPath(c.name)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("no golden fixture: %v\n(generate with: go test ./internal/experiments -run TestGolden -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s drifted from its golden fixture (%s).\n%s\nIf the change is intentional, regenerate with -update and review the diff.",
					c.name, path, firstGoldenDiff(want, got))
			}
		})
	}
}

// firstGoldenDiff locates the first differing line for a readable failure.
func firstGoldenDiff(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("first difference at line %d:\n  golden: %s\n  got:    %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("lengths differ: golden %d lines, got %d", len(wl), len(gl))
}
