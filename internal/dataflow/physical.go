package dataflow

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// TaskID identifies a physical task: the Index-th replica of operator Op.
type TaskID struct {
	Op    OperatorID
	Index int
}

func (t TaskID) String() string { return fmt.Sprintf("%s[%d]", t.Op, t.Index) }

// MarshalText renders the task in its String form, "op[i]", so a TaskID is a
// JSON string and can key a JSON object.
func (t TaskID) MarshalText() ([]byte, error) { return []byte(t.String()), nil }

// UnmarshalText is the inverse of MarshalText. The index bracket is the
// text's last '[' (an operator ID may itself contain '['), and the index
// must be in the canonical form String writes.
func (t *TaskID) UnmarshalText(b []byte) error {
	s := string(b)
	open := strings.LastIndexByte(s, '[')
	digits, closed := strings.CutSuffix(s[open+1:], "]")
	i, err := strconv.Atoi(digits)
	if open < 0 || !closed || err != nil || strconv.Itoa(i) != digits {
		return fmt.Errorf("dataflow: task %q is not of the form op[index]", s)
	}
	*t = TaskID{Op: OperatorID(s[:open]), Index: i}
	return nil
}

// Channel is a physical data link between two tasks.
type Channel struct {
	From, To TaskID
}

// PhysicalGraph is the expansion of a logical graph: every operator is
// replicated into Parallelism tasks and every logical edge is instantiated
// into physical channels according to its EdgeMode.
type PhysicalGraph struct {
	Logical *LogicalGraph

	tasks    []TaskID
	byOp     map[OperatorID][]TaskID
	channels []Channel
	outCh    map[TaskID][]Channel
	inCh     map[TaskID][]Channel
}

// Expand builds the physical execution graph from a logical graph. The
// resulting task order is deterministic: operators in topological order, task
// indices ascending.
func Expand(g *LogicalGraph) (*PhysicalGraph, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	p := &PhysicalGraph{
		Logical: g,
		byOp:    make(map[OperatorID][]TaskID),
		outCh:   make(map[TaskID][]Channel),
		inCh:    make(map[TaskID][]Channel),
	}
	for _, id := range order {
		op := g.Operator(id)
		for i := 0; i < op.Parallelism; i++ {
			t := TaskID{Op: id, Index: i}
			p.tasks = append(p.tasks, t)
			p.byOp[id] = append(p.byOp[id], t)
		}
	}
	for _, e := range g.Edges() {
		ups, downs := p.byOp[e.From], p.byOp[e.To]
		switch e.Mode {
		case AllToAll:
			for _, u := range ups {
				for _, d := range downs {
					p.addChannel(Channel{From: u, To: d})
				}
			}
		case Forward:
			if len(ups) != len(downs) {
				return nil, fmt.Errorf("dataflow: forward edge %s->%s parallelism mismatch", e.From, e.To)
			}
			for i := range ups {
				p.addChannel(Channel{From: ups[i], To: downs[i]})
			}
		default:
			return nil, fmt.Errorf("dataflow: unknown edge mode %v", e.Mode)
		}
	}
	return p, nil
}

func (p *PhysicalGraph) addChannel(c Channel) {
	p.channels = append(p.channels, c)
	p.outCh[c.From] = append(p.outCh[c.From], c)
	p.inCh[c.To] = append(p.inCh[c.To], c)
}

// Tasks returns all tasks in deterministic order.
func (p *PhysicalGraph) Tasks() []TaskID { return append([]TaskID(nil), p.tasks...) }

// NumTasks returns the number of physical tasks.
func (p *PhysicalGraph) NumTasks() int { return len(p.tasks) }

// TasksOf returns the tasks of one operator, index ascending.
func (p *PhysicalGraph) TasksOf(op OperatorID) []TaskID {
	return append([]TaskID(nil), p.byOp[op]...)
}

// NumTasksOf returns the number of tasks of one operator without copying.
func (p *PhysicalGraph) NumTasksOf(op OperatorID) int { return len(p.byOp[op]) }

// Channels returns all physical channels.
func (p *PhysicalGraph) Channels() []Channel { return append([]Channel(nil), p.channels...) }

// Out returns the downstream channels of task t (the paper's D(t)).
func (p *PhysicalGraph) Out(t TaskID) []Channel { return append([]Channel(nil), p.outCh[t]...) }

// In returns the upstream channels of task t.
func (p *PhysicalGraph) In(t TaskID) []Channel { return append([]Channel(nil), p.inCh[t]...) }

// OutDegree returns |D(t)|, the number of downstream physical links of t.
func (p *PhysicalGraph) OutDegree(t TaskID) int { return len(p.outCh[t]) }

// Plan is a task placement plan: a mapping from every task of a physical
// graph to a worker index (paper §4.1, the function f). Worker indices refer
// to a cluster definition that is supplied alongside the plan.
type Plan struct {
	assign map[TaskID]int
}

// NewPlan returns an empty plan.
func NewPlan() *Plan { return &Plan{assign: make(map[TaskID]int)} }

// NewPlanSized returns an empty plan pre-sized for n assignments.
func NewPlanSized(n int) *Plan { return &Plan{assign: make(map[TaskID]int, n)} }

// Assign places task t on worker w (overwriting any previous assignment).
func (pl *Plan) Assign(t TaskID, w int) {
	if pl.assign == nil {
		pl.assign = make(map[TaskID]int)
	}
	pl.assign[t] = w
}

// Worker returns the worker index of task t and whether t is assigned.
func (pl *Plan) Worker(t TaskID) (int, bool) {
	w, ok := pl.assign[t]
	return w, ok
}

// MustWorker returns the worker index of t, panicking if unassigned. It is
// intended for use after Validate has succeeded.
func (pl *Plan) MustWorker(t TaskID) int {
	w, ok := pl.assign[t]
	if !ok {
		panic(fmt.Sprintf("dataflow: task %v not assigned", t))
	}
	return w
}

// Len returns the number of assigned tasks.
func (pl *Plan) Len() int { return len(pl.assign) }

// TasksOn returns the tasks assigned to worker w, in deterministic order.
func (pl *Plan) TasksOn(w int) []TaskID {
	var ts []TaskID
	for t, tw := range pl.assign {
		if tw == w {
			ts = append(ts, t)
		}
	}
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Op != ts[j].Op {
			return ts[i].Op < ts[j].Op
		}
		return ts[i].Index < ts[j].Index
	})
	return ts
}

// WorkerCounts returns, for numWorkers workers, the number of tasks assigned
// to each.
func (pl *Plan) WorkerCounts(numWorkers int) []int {
	counts := make([]int, numWorkers)
	for _, w := range pl.assign {
		if w >= 0 && w < numWorkers {
			counts[w]++
		}
	}
	return counts
}

// Each calls fn for every (task, worker) assignment, in map order.
func (pl *Plan) Each(fn func(TaskID, int)) {
	for t, w := range pl.assign {
		fn(t, w)
	}
}

// OpCountsOn returns a map operator -> number of its tasks on worker w.
func (pl *Plan) OpCountsOn(w int) map[OperatorID]int {
	m := make(map[OperatorID]int)
	for t, tw := range pl.assign {
		if tw == w {
			m[t.Op]++
		}
	}
	return m
}

// Clone returns a deep copy of the plan.
func (pl *Plan) Clone() *Plan {
	c := NewPlan()
	for t, w := range pl.assign {
		c.assign[t] = w
	}
	return c
}

// Equal reports whether two plans contain identical assignments.
func (pl *Plan) Equal(other *Plan) bool {
	if pl.Len() != other.Len() {
		return false
	}
	for t, w := range pl.assign {
		ow, ok := other.assign[t]
		if !ok || ow != w {
			return false
		}
	}
	return true
}

// Validate checks the plan against the paper's constraints for physical graph
// p on a cluster of numWorkers workers with slotsPerWorker slots each:
//
//	Eq. 1: every task is assigned to exactly one worker;
//	Eq. 2: no worker holds more tasks than it has slots.
func (pl *Plan) Validate(p *PhysicalGraph, numWorkers, slotsPerWorker int) error {
	if pl.Len() != p.NumTasks() {
		return fmt.Errorf("dataflow: plan assigns %d tasks, graph has %d", pl.Len(), p.NumTasks())
	}
	counts := make([]int, numWorkers)
	for _, t := range p.Tasks() {
		w, ok := pl.assign[t]
		if !ok {
			return fmt.Errorf("dataflow: task %v not assigned (Eq. 1 violated)", t)
		}
		if w < 0 || w >= numWorkers {
			return fmt.Errorf("dataflow: task %v assigned to out-of-range worker %d", t, w)
		}
		counts[w]++
	}
	for w, c := range counts {
		if c > slotsPerWorker {
			return fmt.Errorf("dataflow: worker %d holds %d tasks, only %d slots (Eq. 2 violated)", w, c, slotsPerWorker)
		}
	}
	return nil
}

// String renders the plan as "worker: tasks" lines for debugging.
func (pl *Plan) String() string {
	maxW := -1
	for _, w := range pl.assign {
		if w > maxW {
			maxW = w
		}
	}
	s := ""
	for w := 0; w <= maxW; w++ {
		ts := pl.TasksOn(w)
		if len(ts) == 0 {
			continue
		}
		s += fmt.Sprintf("w%d:", w)
		for _, t := range ts {
			s += " " + t.String()
		}
		s += "\n"
	}
	return s
}
