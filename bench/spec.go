package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchSpec is BENCHMARK.json: the contract that names the workloads and
// the metrics, their units, directions and regression bounds. The harness
// reads it rather than repeating it, so the file and the output cannot
// drift apart.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specNamed  `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specNamed struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec finds BENCHMARK.json in the working directory or its parent (the
// bench is run from the repository root, its tests from bench/).
func loadSpec() (*benchSpec, string, error) {
	for _, root := range []string{".", ".."} {
		buf, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
		if err != nil {
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(buf, &s); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &s, root, nil
	}
	return nil, "", fmt.Errorf("BENCHMARK.json not found in . or ..")
}

func outDir(root string) string { return filepath.Join(root, "bench", "out") }

// unit is the unit BENCHMARK.json gives a metric ("" for a name it lacks).
func (s *benchSpec) unit(name string) string {
	for _, list := range [][]specMetric{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// resultLine renders the contract's one-line result: the end-to-end metrics
// of an untraced run, the per-layer metrics of a traced one. An end-to-end
// metric the run did not produce is an error; a per-layer metric a workload
// does not exercise reads 0.
func (s *benchSpec) resultLine(r *workloadResult) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	list := s.EndToEnd
	if r.Trace {
		list = s.PerLayer
	}
	metrics := make(map[string]mv, len(list))
	for _, m := range list {
		got, ok := r.Metrics[m.Name]
		if !ok && !r.Trace {
			return "", fmt.Errorf("workload %s produced no %s", r.Workload, m.Name)
		}
		metrics[m.Name] = mv{Value: got.Value, Unit: m.Unit}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	buf, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, attempted, r.Failed, metrics})
	return string(buf), err
}
