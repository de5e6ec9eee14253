// Command ettool generates, validates, inspects, and converts execution
// traces (the simulator's workload format).
//
// Subcommands:
//
//	ettool gen -workload gpt3 -topology "R(16)_R(2)" -o trace.json
//	ettool validate trace.json
//	ettool info trace.json
//	ettool convert -pytorch graph.json -o trace.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/convert"
	"repro/internal/et"
	"repro/internal/etgen"
	"repro/internal/topology"
	"repro/internal/units"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = runGen(os.Args[2:])
	case "validate":
		err = runValidate(os.Args[2:])
	case "info":
		err = runInfo(os.Args[2:])
	case "convert":
		err = runConvert(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ettool:", err)
		os.Exit(1)
	}
}

// genWorkloads lists every workload gen accepts.
var genWorkloads = []string{"gpt3", "t1t", "dlrm", "moe", "moe_inswitch", "pipeline", "all_reduce", "all_gather", "reduce_scatter", "all_to_all"}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: ettool <gen|validate|info|convert> [flags]

  gen      -workload <%s> -topology <spec> [-size N] [-o file]
  validate <trace.json>
  info     <trace.json>
  convert  -pytorch <graph.json> [-o file]
`, strings.Join(genWorkloads, "|"))
	os.Exit(2)
}

func runGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	workload := fs.String("workload", "all_reduce", "workload to generate")
	topoSpec := fs.String("topology", "", "topology shape, e.g. R(16)_R(2)")
	size := fs.Int64("size", 1<<30, "collective size (collective workloads)")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *topoSpec == "" {
		return fmt.Errorf("gen: -topology required")
	}
	switch *workload {
	case "all_reduce", "all_gather", "reduce_scatter", "all_to_all":
		if *size <= 0 {
			return fmt.Errorf("gen: -size must be a positive byte count, got %d", *size)
		}
	}
	top, err := topology.Parse(*topoSpec)
	if err != nil {
		return err
	}
	trace, err := generate(*workload, top, units.ByteSize(*size))
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return trace.Encode(w)
}

// generate builds and validates one of genWorkloads on a topology; size is
// the payload of the collective workloads.
func generate(workload string, top *topology.Topology, size units.ByteSize) (*et.Trace, error) {
	var trace *et.Trace
	var err error
	switch workload {
	case "all_reduce":
		trace = etgen.SingleCollective(top, et.CollAllReduce, size)
	case "all_gather":
		trace = etgen.SingleCollective(top, et.CollAllGather, size)
	case "reduce_scatter":
		trace = etgen.SingleCollective(top, et.CollReduceScatter, size)
	case "all_to_all":
		trace = etgen.SingleCollective(top, et.CollAllToAll, size)
	case "gpt3":
		trace, err = etgen.Transformer(top, etgen.GPT3())
	case "t1t":
		trace, err = etgen.Transformer(top, etgen.Transformer1T())
	case "dlrm":
		trace, err = etgen.DLRMTrace(top, etgen.DLRM())
	case "moe", "moe_inswitch":
		trace, err = etgen.MoETrace(top, etgen.MoE1T(workload == "moe_inswitch"))
	case "pipeline":
		trace, err = etgen.Pipeline(top, etgen.DefaultPipeline())
	default:
		return nil, fmt.Errorf("gen: unknown workload %q", workload)
	}
	if err != nil {
		return nil, err
	}
	if err := trace.Validate(); err != nil {
		return nil, fmt.Errorf("gen: generated trace invalid: %w", err)
	}
	return trace, nil
}

func loadTrace(path string) (*et.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return et.Decode(f)
}

func runValidate(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("validate: exactly one trace file expected")
	}
	if _, err := loadTrace(args[0]); err != nil {
		return err
	}
	fmt.Println("OK")
	return nil
}

func runInfo(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("info: exactly one trace file expected")
	}
	trace, err := loadTrace(args[0])
	if err != nil {
		return err
	}
	var kinds [et.KindRecv + 1]int // Decode validated every kind
	var commBytes, memBytes int64
	var flops float64
	for _, g := range trace.Graphs {
		for i := range g.Nodes {
			n := &g.Nodes[i]
			kinds[n.Kind]++
			commBytes += n.CommBytes
			memBytes += n.TensorBytes
			flops += n.FLOPs
		}
	}
	fmt.Printf("name:      %s\n", trace.Name)
	fmt.Printf("npus:      %d\n", trace.NumNPUs)
	fmt.Printf("nodes:     %d total\n", trace.NodeCount())
	for k, count := range kinds {
		if count > 0 {
			fmt.Printf("  %-10s %d\n", et.NodeKind(k), count)
		}
	}
	fmt.Printf("flops:     %.3g total\n", flops)
	fmt.Printf("comm:      %s total\n", units.ByteSize(commBytes))
	fmt.Printf("mem:       %s total\n", units.ByteSize(memBytes))
	return nil
}

func runConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	pytorch := fs.String("pytorch", "", "PARAM-style PyTorch execution graph JSON")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pytorch == "" {
		return fmt.Errorf("convert: -pytorch required")
	}
	f, err := os.Open(*pytorch)
	if err != nil {
		return err
	}
	defer f.Close()
	src, err := convert.DecodePyTorch(f)
	if err != nil {
		return err
	}
	trace, err := convert.Convert(src)
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		g, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer g.Close()
		w = g
	}
	return trace.Encode(w)
}
