// Command bench is the repository's benchmark: six workloads over the
// placement search and the live engine, each checked against a reference
// computation. See README.md in this directory.
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one JSON line last
//	bench run [-trace] [-seed n] [-seconds s] [-quick]               every workload, each in a child process
//	bench compare A.json B.json                                      verdict per workload × end-to-end metric
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "run":
			os.Exit(runAll(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	os.Exit(childMain(os.Args[1:]))
}

// childMain measures one workload in this process and prints the result
// line the benchmark contract asks for.
func childMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics, spans, CPU profile")
	quick := fs.Bool("quick", false, "1/100-size inputs (smoke test)")
	out := fs.String("out", "", "also write the full result as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, root, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cfg := runConfig{workload: w, seed: *seed, seconds: *seconds, trace: *trace != 0, quick: *quick, outDir: outDir(root)}
	res, err := runWorkload(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	printReport(spec, res)
	for name, m := range res.Metrics {
		m.Unit = spec.unit(name)
		res.Metrics[name] = m
	}
	if *out != "" {
		buf, err := json.MarshalIndent(res, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	line, err := spec.resultLine(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(line)
	if !res.Correct {
		return 1
	}
	return 0
}
