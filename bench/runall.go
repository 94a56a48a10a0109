package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// hygiene records the conditions a result was taken under.
type hygiene struct {
	Seed       int64   `json:"seed"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	LoadStart  float64 `json:"load1_start"`
	LoadEnd    float64 `json:"load1_end"`
	// Noisy marks a run that started on a machine already busier than it
	// has processors; compare reports its rows as unresolved.
	Noisy bool `json:"noisy"`
}

// resultFile is bench/out/result.json.
type resultFile struct {
	Hygiene   hygiene          `json:"hygiene"`
	Trace     bool             `json:"trace"`
	Workloads []workloadResult `json:"workloads"`
}

func load1() float64 {
	buf, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(buf))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64)
	return v
}

// commitID asks git for the checked-out commit; a tree without git (an
// exported checkout) reports "unknown".
func commitID(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runAll runs every workload in a child process of its own, so heap, pools
// and peak RSS do not leak from one workload into the next.
func runAll(args []string) int {
	fs := flag.NewFlagSet("bench run", flag.ContinueOnError)
	trace := fs.Bool("trace", false, "traced run: per-layer metrics, spans, CPU profile")
	seed := fs.Int64("seed", 1, "input seed (seed 2 is the held-out seed)")
	seconds := fs.Float64("seconds", 0, "length of each workload's measured phase (default: run_seconds of BENCHMARK.json)")
	quick := fs.Bool("quick", false, "1/100-size inputs (smoke test)")
	only := fs.String("workload", "", "run only this workload")
	outFile := fs.String("o", "", "result file (default bench/out/result.json, result-trace.json with -trace)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, root, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	dir := outDir(root)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	res := resultFile{Trace: *trace, Hygiene: hygiene{
		Seed: *seed, Commit: commitID(root), GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GoMaxProcs: benchProcs(), LoadStart: load1(),
	}}
	res.Hygiene.Noisy = res.Hygiene.LoadStart > float64(res.Hygiene.NProc)
	if res.Hygiene.Noisy {
		fmt.Printf("warning: 1-minute load average %.2f exceeds %d processors; this run is marked noisy\n", res.Hygiene.LoadStart, res.Hygiene.NProc)
	}

	code := 0
	for _, w := range workloads() {
		if *only != "" && w.name != *only {
			continue
		}
		part := filepath.Join(dir, "part-"+w.name+".json")
		cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(*seed, 10),
			"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "--trace", strconv.Itoa(b2i(*trace)), "--out", part)
		if *quick {
			cmd.Args = append(cmd.Args, "--quick")
		}
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", w.name, err)
			code = 1
		}
		buf, err := os.ReadFile(part)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s left no result\n", w.name)
			code = 1
			continue
		}
		os.Remove(part)
		var wr workloadResult
		if err := json.Unmarshal(buf, &wr); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", w.name, err)
			code = 1
			continue
		}
		if wr.Failed > 0 {
			code = 1
		}
		res.Workloads = append(res.Workloads, wr)
		fmt.Printf("workload %s took %.1fs\n\n", w.name, time.Since(t0).Seconds())
	}
	res.Hygiene.LoadEnd = load1()

	path := *outFile
	if path == "" {
		path = filepath.Join(dir, "result.json")
		if *trace {
			path = filepath.Join(dir, "result-trace.json")
		}
	}
	buf, err := json.MarshalIndent(res, "", " ")
	if err == nil {
		err = os.WriteFile(path, append(buf, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("wrote %s\n", path)
	return code
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
