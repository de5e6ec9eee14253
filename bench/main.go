// Command bench is the repository's end-to-end benchmark. It runs four
// workloads (see workloads.go and README.md), each sample in a fresh child
// process so that package-level caches and the heap start cold, exactly as
// in one cmd/paper or cmd/astrasim invocation. For each workload it prints
// every end-to-end metric with its unit, checks a digest of the simulated
// results, and ends with a one-line JSON result. Run it from the
// repository root:
//
//	sh bench/run.sh                           all workloads, one sample each
//	sh bench/run.sh -workload cluster_mix -seed 3 -seconds 25
//	sh bench/run.sh -reps 5 -out a.json       keep the full report
//	sh bench/run.sh -trace DIR                add per-layer CPU attribution
//	sh bench/run.sh -compare a.json b.json    gate b against a's medians
//	sh bench/run.sh -update                   rewrite testdata/expected.json
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"syscall"
	"time"
)

// expectedJSON holds the committed digest of each workload's simulated
// results for expectedSeed.
//
//go:embed testdata/expected.json
var expectedJSON []byte

const (
	expectedSeed = 1
	expectedPath = "bench/testdata/expected.json"
	// defaultTraceDir is where "-trace 1" writes, inside the build
	// directory the repository ignores.
	defaultTraceDir = ".bench_build/trace"
	// childTimeout bounds one sample; the largest takes about ten seconds.
	childTimeout = 150 * time.Second
)

func main() {
	only := flag.String("workload", "", "run only this workload (default: all, round-robin)")
	seed := flag.Int64("seed", expectedSeed, "input seed; only cluster_mix's inputs depend on it")
	reps := flag.Int("reps", 1, "minimum samples per workload")
	seconds := flag.Float64("seconds", 0, "keep taking rounds of samples while another fits in this many seconds")
	trace := flag.String("trace", "", `write a traced run's trace.json and layers.json to this directory ("1": `+defaultTraceDir+`, "0": no tracing)`)
	out := flag.String("out", "", "write the full report as JSON to this file")
	update := flag.Bool("update", false, "rewrite "+expectedPath+" from this run's digests (seed 1)")
	compare := flag.Bool("compare", false, "compare two -out reports given as arguments: -compare A.json B.json")
	child := flag.String("child", "", "internal: run one sample of this workload and print it as JSON")
	t0 := flag.Int64("t0", 0, "internal: the parent's clock, in Unix nanoseconds, when it started this child")
	flag.Parse()

	if *child != "" {
		start := time.Now()
		if *t0 != 0 {
			start = time.Unix(0, *t0)
		}
		if err := runChildSample(*child, *seed, start, *trace == "1"); err != nil {
			fatal(err)
		}
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two report files"))
		}
		a, err := readReport(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := readReport(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if n := compareReports(os.Stdout, a, b); n > 0 {
			fmt.Printf("%d regression(s)\n", n)
			os.Exit(1)
		}
		return
	}
	if *update && *seed != expectedSeed {
		fatal(fmt.Errorf("-update records seed %d digests", expectedSeed))
	}

	ws := workloads
	if *only != "" {
		w, err := findWorkload(*only)
		if err != nil {
			fatal(err)
		}
		ws = []workload{w}
	}
	traceDir := *trace
	switch traceDir {
	case "0":
		traceDir = ""
	case "1":
		traceDir = defaultTraceDir
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := runSamples(ctx, ws, *seed, *reps, *seconds, traceDir != "")
	if err != nil {
		fatal(err)
	}
	expected := map[string]string{}
	if err := json.Unmarshal(expectedJSON, &expected); err != nil {
		fatal(fmt.Errorf("%s: %w", expectedPath, err))
	}
	for i, wr := range rep.Workloads {
		want := ""
		if !*update && (*seed == expectedSeed || !ws[i].seeded) {
			want = expected[wr.Name]
		}
		wr.finish(want)
	}

	printReport(os.Stdout, rep)
	if traceDir != "" {
		if err := writeTrace(traceDir, rep); err != nil {
			fatal(err)
		}
		fmt.Printf("\ntrace: %s/trace.json, %s/layers.json\n", traceDir, traceDir)
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fatal(err)
		}
	}
	if *update {
		for _, wr := range rep.Workloads {
			if wr.Failed > 0 {
				fatal(fmt.Errorf("%s: samples failed or disagree; not updating", wr.Name))
			}
			expected[wr.Name] = wr.Digest
		}
		if err := writeJSON(expectedPath, expected); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %s\n", expectedPath)
	}
	line, err := resultLine(rep, traceDir != "")
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
	for _, wr := range rep.Workloads {
		if wr.Failed > 0 {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runSamples takes rounds of samples, one child process per sample and one
// sample per workload per round (with tracing, an untraced and a traced
// one). It stops after reps rounds once another round would end past
// seconds.
func runSamples(ctx context.Context, ws []workload, seed int64, reps int, seconds float64, traced bool) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	rep := &report{Seed: seed}
	for _, w := range ws {
		rep.Workloads = append(rep.Workloads, &workloadReport{Name: w.name, Seed: seed})
	}
	modes := []bool{false}
	if traced {
		modes = append(modes, true)
	}
	start := time.Now()
	for round := 1; ; round++ {
		for i, w := range ws {
			for _, profile := range modes {
				s := runChild(ctx, exe, w, seed, profile)
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				rep.Workloads[i].Samples = append(rep.Workloads[i].Samples, s)
			}
		}
		elapsed := time.Since(start).Seconds()
		if round >= reps && elapsed+elapsed/float64(round) > seconds {
			return rep, nil
		}
	}
}

// runChild runs one sample in a fresh process and waits for it to exit.
func runChild(ctx context.Context, exe string, w workload, seed int64, profile bool) *sample {
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	args := []string{"-child", w.name, "-seed", strconv.FormatInt(seed, 10)}
	if profile {
		args = append(args, "-trace", "1")
	}
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, append(args, "-t0", strconv.FormatInt(time.Now().UnixNano(), 10))...)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	s := &sample{Workload: w.name, Seed: seed, Traced: profile}
	if err := cmd.Run(); err != nil {
		s.Err = err.Error()
		return s
	}
	if err := json.Unmarshal(stdout.Bytes(), s); err != nil {
		s.Err = fmt.Sprintf("reading child output: %v", err)
	}
	return s
}

// runChildSample is the child side: one sample, printed as JSON.
func runChildSample(name string, seed int64, t0 time.Time, profile bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	s, err := measure(w, params{seed: seed}, t0, profile)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return json.NewEncoder(os.Stdout).Encode(s)
}
