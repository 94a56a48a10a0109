package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A side of a comparison is one result file or a directory of them (a set of
// runs of one commit). The value of a metric on a side is the median over
// the side's runs of each run's reported value; the side's own spread is the
// interquartile distance over those runs as a share of that median, or —
// for a single run — over the run's repetitions.

type side struct {
	name  string
	runs  []resultFile
	noisy bool
}

func loadSide(path string) (*side, error) {
	s := &side{name: path}
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(buf, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		s.runs = append(s.runs, rf)
		s.noisy = s.noisy || rf.Hygiene.Noisy
	}
	if len(s.runs) == 0 {
		return nil, fmt.Errorf("%s: no result files", path)
	}
	return s, nil
}

// values returns one value per run for a workload's metric, and the
// repetitions of the single run when there is only one.
func (s *side) values(workload, metricName string) (vals, reps []float64) {
	for _, rf := range s.runs {
		for _, w := range rf.Workloads {
			if w.Workload != workload {
				continue
			}
			if m, ok := w.Metrics[metricName]; ok {
				vals = append(vals, m.Value)
				reps = m.Reps
			}
		}
	}
	return vals, reps
}

func (s *side) ownSpread(vals, reps []float64) float64 {
	if len(vals) >= 4 {
		return spread(vals)
	}
	return spread(reps)
}

// failShare is failed_ops / attempted_ops over a side's runs of a workload.
func (s *side) failShare(workload string) (failed, attempted int64) {
	for _, rf := range s.runs {
		for _, w := range rf.Workloads {
			if w.Workload == workload {
				failed += w.Failed
				attempted += w.Attempted
			}
		}
	}
	return failed, attempted
}

func (s *side) workloads() []string {
	seen := map[string]bool{}
	var out []string
	for _, rf := range s.runs {
		for _, w := range rf.Workloads {
			if !seen[w.Workload] {
				seen[w.Workload] = true
				out = append(out, w.Workload)
			}
		}
	}
	return out
}

// verdict judges B against A for one metric. change is B's relative change
// in the direction that is worse (positive = worse).
func verdict(a, b, spreadA, spreadB, bound float64, better string, noisy bool) string {
	if a == 0 {
		return "unresolved"
	}
	worse := (b - a) / a
	if better == "higher" {
		worse = -worse
	}
	switch {
	case noisy || spreadA > bound || spreadB > bound:
		return "unresolved"
	case worse > bound:
		return "worse"
	case worse < -bound:
		return "better"
	}
	return "within"
}

// compareRow is one line of the comparison.
type compareRow struct {
	workload, metric, unit string
	a, b, ratio            float64
	spreadA, spreadB       float64
	bound                  float64
	verdict                string
}

func compareSides(spec *benchSpec, a, b *side) []compareRow {
	var rows []compareRow
	for _, w := range a.workloads() {
		for _, m := range spec.EndToEnd {
			va, ra := a.values(w, m.Name)
			vb, rb := b.values(w, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			row := compareRow{workload: w, metric: m.Name, unit: m.Unit, a: median(va), b: median(vb), bound: m.Bound,
				spreadA: a.ownSpread(va, ra), spreadB: b.ownSpread(vb, rb)}
			if row.a != 0 {
				row.ratio = row.b / row.a
			}
			row.verdict = verdict(row.a, row.b, row.spreadA, row.spreadB, m.Bound, m.Better, a.noisy || b.noisy)
			rows = append(rows, row)
		}
	}
	return rows
}

func printComparison(out io.Writer, spec *benchSpec, a, b *side) (worse, unresolved int) {
	fmt.Fprintf(out, "A = %s (%d run(s))\nB = %s (%d run(s))\n\n", a.name, len(a.runs), b.name, len(b.runs))
	fmt.Fprintf(out, "%-16s %-16s %14s %14s %-22s %7s %8s %8s  %s\n", "workload", "metric", "A median", "B median", "B/A (base A)", "bound", "spreadA", "spreadB", "verdict")
	rows := compareSides(spec, a, b)
	for _, r := range rows {
		fmt.Fprintf(out, "%-16s %-16s %14.6g %14.6g %-22s %6.0f%% %7.1f%% %7.1f%%  %s\n",
			r.workload, r.metric, r.a, r.b, fmt.Sprintf("%.3f of %.4g %s", r.ratio, r.a, r.unit),
			100*r.bound, 100*r.spreadA, 100*r.spreadB, r.verdict)
		switch r.verdict {
		case "worse":
			worse++
		case "unresolved":
			unresolved++
		}
	}
	fmt.Fprintln(out)
	for _, w := range a.workloads() {
		fa, aa := a.failShare(w)
		fb, ab := b.failShare(w)
		state := "same"
		if aa > 0 && ab > 0 && float64(fb)/float64(ab) > float64(fa)/float64(aa) {
			state = "worse"
			worse++
		}
		fmt.Fprintf(out, "%-16s failed/attempted  A %d/%d  B %d/%d  %s\n", w, fa, aa, fb, ab, state)
	}
	return worse, unresolved
}

func compareMain(args []string) int {
	if len(args) != 2 || strings.HasPrefix(args[0], "-") {
		fmt.Fprintln(os.Stderr, "usage: bench compare A B   (each a result file or a directory of result files)")
		return 2
	}
	spec, _, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	a, err := loadSide(args[0])
	if err == nil {
		var b *side
		if b, err = loadSide(args[1]); err == nil {
			worse, unresolved := printComparison(os.Stdout, spec, a, b)
			fmt.Printf("\n%d worse, %d unresolved\n", worse, unresolved)
			if worse > 0 {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}
