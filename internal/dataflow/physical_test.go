package dataflow

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestExpandLinear(t *testing.T) {
	g := linearGraph(t, 2, 2, 4, 1)
	p, err := Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumTasks() != 9 {
		t.Fatalf("NumTasks = %d, want 9", p.NumTasks())
	}
	if got := len(p.TasksOf("I")); got != 4 {
		t.Errorf("TasksOf(I) = %d tasks, want 4", got)
	}
	// All-to-all channels: 2*2 + 2*4 + 4*1 = 16.
	if got := len(p.Channels()); got != 16 {
		t.Errorf("channels = %d, want 16", got)
	}
	// Every T task has 4 downstream links (to the 4 I tasks).
	for _, task := range p.TasksOf("T") {
		if d := p.OutDegree(task); d != 4 {
			t.Errorf("OutDegree(%v) = %d, want 4", task, d)
		}
	}
	// Sinks have no downstream links.
	for _, task := range p.TasksOf("K") {
		if d := p.OutDegree(task); d != 0 {
			t.Errorf("sink OutDegree(%v) = %d, want 0", task, d)
		}
	}
}

func TestExpandForward(t *testing.T) {
	g := NewLogicalGraph()
	mustAdd(t, g, Operator{ID: "a", Parallelism: 3, Selectivity: 1})
	mustAdd(t, g, Operator{ID: "b", Parallelism: 3, Selectivity: 1})
	mustEdge(t, g, Edge{From: "a", To: "b", Mode: Forward})
	p, err := Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Channels()); got != 3 {
		t.Fatalf("forward channels = %d, want 3", got)
	}
	for _, c := range p.Channels() {
		if c.From.Index != c.To.Index {
			t.Errorf("forward channel crosses indices: %v", c)
		}
	}
}

func TestExpandRejectsInvalidGraph(t *testing.T) {
	g := NewLogicalGraph()
	if _, err := Expand(g); err == nil {
		t.Error("Expand accepted empty graph")
	}
}

func TestChannelConsistency(t *testing.T) {
	g := linearGraph(t, 2, 3, 4, 2)
	p, err := Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	// Sum of out-degrees equals sum of in-degrees equals #channels.
	outSum, inSum := 0, 0
	for _, task := range p.Tasks() {
		outSum += len(p.Out(task))
		inSum += len(p.In(task))
	}
	if outSum != len(p.Channels()) || inSum != len(p.Channels()) {
		t.Errorf("degree sums out=%d in=%d, channels=%d", outSum, inSum, len(p.Channels()))
	}
}

func TestPlanAssignAndValidate(t *testing.T) {
	g := linearGraph(t, 2, 2, 4, 1)
	p, err := Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlan()
	// Round-robin over 3 workers with 3 slots each.
	for i, task := range p.Tasks() {
		pl.Assign(task, i%3)
	}
	if err := pl.Validate(p, 3, 3); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	if err := pl.Validate(p, 3, 2); err == nil {
		t.Error("slot overflow accepted")
	}
	if err := pl.Validate(p, 2, 3); err == nil {
		t.Error("out-of-range worker accepted")
	}

	// Missing assignment violates Eq. 1.
	partial := NewPlan()
	partial.Assign(TaskID{Op: "S", Index: 0}, 0)
	if err := partial.Validate(p, 3, 3); err == nil {
		t.Error("partial plan accepted")
	}
}

func TestPlanHelpers(t *testing.T) {
	pl := NewPlan()
	pl.Assign(TaskID{Op: "a", Index: 0}, 0)
	pl.Assign(TaskID{Op: "a", Index: 1}, 0)
	pl.Assign(TaskID{Op: "b", Index: 0}, 1)

	if w := pl.MustWorker(TaskID{Op: "b", Index: 0}); w != 1 {
		t.Errorf("MustWorker = %d", w)
	}
	if _, ok := pl.Worker(TaskID{Op: "z", Index: 0}); ok {
		t.Error("Worker reported unassigned task as assigned")
	}
	if got := pl.TasksOn(0); len(got) != 2 {
		t.Errorf("TasksOn(0) = %v", got)
	}
	if c := pl.WorkerCounts(2); c[0] != 2 || c[1] != 1 {
		t.Errorf("WorkerCounts = %v", c)
	}
	if m := pl.OpCountsOn(0); m["a"] != 2 {
		t.Errorf("OpCountsOn(0) = %v", m)
	}
	c := pl.Clone()
	c.Assign(TaskID{Op: "b", Index: 0}, 0)
	if pl.MustWorker(TaskID{Op: "b", Index: 0}) != 1 {
		t.Error("Clone is shallow")
	}
	if pl.Equal(c) {
		t.Error("Equal true for different plans")
	}
	if !pl.Equal(pl.Clone()) {
		t.Error("Equal false for identical plans")
	}
	d := NewPlan()
	d.Assign(TaskID{Op: "a", Index: 0}, 0)
	if pl.Equal(d) {
		t.Error("Equal true for different-size plans")
	}
	if pl.String() == "" {
		t.Error("String empty")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustWorker on unassigned task did not panic")
		}
	}()
	pl.MustWorker(TaskID{Op: "nope", Index: 9})
}

// Property: any random assignment of all tasks to in-range workers with
// sufficient slots validates; removing one task breaks Eq. 1.
func TestPlanValidateProperty(t *testing.T) {
	g := linearGraph(t, 2, 3, 4, 2)
	p, err := Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	tasks := p.Tasks()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		numWorkers := 3 + rng.Intn(4)
		pl := NewPlan()
		for _, task := range tasks {
			pl.Assign(task, rng.Intn(numWorkers))
		}
		// With slots == total tasks, capacity can never be violated.
		if pl.Validate(p, numWorkers, len(tasks)) != nil {
			return false
		}
		counts := pl.WorkerCounts(numWorkers)
		total := 0
		maxC := 0
		for _, c := range counts {
			total += c
			if c > maxC {
				maxC = c
			}
		}
		if total != len(tasks) {
			return false
		}
		// Tight slot bound: exactly maxC slots validates, maxC-1 fails.
		if pl.Validate(p, numWorkers, maxC) != nil {
			return false
		}
		if maxC > 0 && pl.Validate(p, numWorkers, maxC-1) == nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestTaskIDText: a TaskID's text form is its String form and parses back at
// the last '[', so operator IDs holding brackets or dots round-trip; text
// that String could not have written is refused.
func TestTaskIDText(t *testing.T) {
	for _, id := range []TaskID{{"win", 0}, {"slide-win", 12}, {"Q[1]", 3}, {"a.b", 0}, {"", 7}, {"x", -1}} {
		b, err := id.MarshalText()
		if err != nil || string(b) != id.String() {
			t.Fatalf("%v: text %q, %v", id, b, err)
		}
		var got TaskID
		if err := got.UnmarshalText(b); err != nil || got != id {
			t.Errorf("%q parsed as %v, %v; want %v", b, got, err, id)
		}
	}
	for _, bad := range []string{"", "win", "win[", "win[]", "win[1", "win[01]", "win[+1]", "win[1]x", "win[1.5]"} {
		var got TaskID
		if err := got.UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("%q parsed as %v, want an error", bad, got)
		}
	}
}
