package metrics

import (
	"strings"
	"testing"
)

// FuzzParseTaskMetricName proves ParseTaskMetricName is a true inverse of
// TaskMetricName in both directions:
//
//   - Any accepted name rebuilds byte-for-byte (parsing accepts only the
//     canonical rendering — no "[01]" or "[+1]" indices).
//   - Any canonical name built from parseable parts (non-empty operator,
//     non-negative index, non-empty metric without '[') parses back to
//     exactly those parts.
func FuzzParseTaskMetricName(f *testing.F) {
	f.Add("win[3].records_in")
	f.Add("src[0].bp_time")
	f.Add("a[01].m")
	f.Add("a[+1].m")
	f.Add("job.recoveries")
	f.Add("deeply[2].dotted.metric.name")
	f.Fuzz(func(t *testing.T, name string) {
		m, ok := ParseTaskMetricName(name)
		if ok {
			if rebuilt := TaskMetricName(m.Op, m.Index, m.Metric); rebuilt != name {
				t.Fatalf("parse(%q) = %+v, but rebuild gives %q", name, m, rebuilt)
			}
		}
	})
}

// FuzzTaskMetricNameInverse fuzzes the build->parse direction over the parts
// domain: any non-empty operator ID (user input, so '[' and ']' included),
// any non-negative index, any non-empty metric without '['. It also pins
// that an operator ID never decides whether a per-task name passes the name
// check: only the metric part, the family, does.
func FuzzTaskMetricNameInverse(f *testing.F) {
	f.Add("win", 3, "records_in")
	f.Add("op", 0, "x")
	f.Add("Q[1]", 2, "records_in")
	f.Add("worker.w1.", 0, "busy_seconds")
	f.Add("a].b[0]", 7, "m].n")
	f.Fuzz(func(t *testing.T, op string, index int, metric string) {
		// Outside this domain TaskMetricName produces names that are not
		// per-task metric names (or that parse differently), by design.
		if op == "" || index < 0 || metric == "" || strings.ContainsRune(metric, '[') {
			return
		}
		name := TaskMetricName(op, index, metric)
		m, ok := ParseTaskMetricName(name)
		if !ok {
			t.Fatalf("canonical name %q did not parse", name)
		}
		if m.Op != op || m.Index != index || m.Metric != metric {
			t.Fatalf("round trip changed parts: built from (%q,%d,%q), parsed %+v", op, index, metric, m)
		}
		if (CheckName(name, CellName) == nil) != (CheckName(metric, FamilyName) == nil) {
			t.Fatalf("operator %q changes the check of %q: %v", op, name, CheckName(name, CellName))
		}
	})
}
