// Package costmodel implements the CAPS analytical cost model (paper §4.2).
//
// The model captures the resource imbalance of a task placement plan as the
// difference of the bottleneck worker's load from the ideal, perfectly
// balanced load, expressed independently along three dimensions: compute
// (CPU), state access (disk I/O) and network. Each dimension yields a cost in
// [0,1]; the three values form the plan's cost vector, and plans are compared
// by Pareto dominance.
package costmodel

import (
	"fmt"
	"math"
	"sort"

	"capsys/internal/dataflow"
)

// Vector holds one value per resource dimension. It is used both for worker
// loads (L_cpu, L_io, L_net) and for plan costs (C_cpu, C_io, C_net).
type Vector struct {
	CPU float64
	IO  float64
	Net float64
}

// Add returns the element-wise sum v + o.
func (v Vector) Add(o Vector) Vector {
	return Vector{CPU: v.CPU + o.CPU, IO: v.IO + o.IO, Net: v.Net + o.Net}
}

// Scale returns v with every element multiplied by k.
func (v Vector) Scale(k float64) Vector {
	return Vector{CPU: v.CPU * k, IO: v.IO * k, Net: v.Net * k}
}

// Max returns the element-wise maximum of v and o.
func (v Vector) Max(o Vector) Vector {
	return Vector{CPU: math.Max(v.CPU, o.CPU), IO: math.Max(v.IO, o.IO), Net: math.Max(v.Net, o.Net)}
}

// Dominates reports whether v is no worse than o in every dimension and
// strictly better in at least one (the Pareto dominance relation on costs,
// lower is better).
func (v Vector) Dominates(o Vector) bool {
	if v.CPU > o.CPU || v.IO > o.IO || v.Net > o.Net {
		return false
	}
	return v.CPU < o.CPU || v.IO < o.IO || v.Net < o.Net
}

// LeqAll reports whether every element of v is <= the corresponding element
// of o (used for threshold checks C_i <= alpha_i).
func (v Vector) LeqAll(o Vector) bool {
	return v.CPU <= o.CPU && v.IO <= o.IO && v.Net <= o.Net
}

func (v Vector) String() string {
	return fmt.Sprintf("[cpu=%.4g io=%.4g net=%.4g]", v.CPU, v.IO, v.Net)
}

// Usage holds the steady-state resource usage of every task, U_cpu(t),
// U_io(t) and U_net(t) in the paper's notation. Under the model assumption
// that tasks of the same operator are identical (no skew), usage is stored
// per operator.
type Usage struct {
	perOp map[dataflow.OperatorID]Vector
}

// NewUsage creates a Usage from a per-operator task usage map.
func NewUsage(perOp map[dataflow.OperatorID]Vector) *Usage {
	m := make(map[dataflow.OperatorID]Vector, len(perOp))
	for k, v := range perOp {
		m[k] = v
	}
	return &Usage{perOp: m}
}

// FromRates derives task usage vectors from the profiled per-record unit
// costs and the target rate plan, as the CAPSys placement controller does on
// reconfiguration (paper §5.1): each task's usage is its operator's unit cost
// multiplied by the task's target input rate.
func FromRates(g *dataflow.LogicalGraph, rates *dataflow.RatePlan) *Usage {
	perOp := make(map[dataflow.OperatorID]Vector, g.NumOperators())
	for _, op := range g.Operators() {
		in := rates.TaskInRate(g, op.ID)
		perOp[op.ID] = Vector{
			CPU: op.Cost.CPU * in,
			IO:  op.Cost.IO * in,
			Net: op.Cost.Net * in,
		}
	}
	return &Usage{perOp: perOp}
}

// Task returns the usage vector of any task of operator op.
func (u *Usage) Task(op dataflow.OperatorID) Vector { return u.perOp[op] }

// Operators returns the operator IDs with recorded usage, sorted.
func (u *Usage) Operators() []dataflow.OperatorID {
	ids := make([]dataflow.OperatorID, 0, len(u.perOp))
	for id := range u.perOp {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Bounds holds, per dimension, the per-worker load of a perfectly balanced
// allocation (L_i^min, Eq. 6) and of the worst case where the s most
// intensive tasks are co-located (L_i^max, Eq. 7). For the network dimension
// L^min is 0 by the paper's approximation (all tasks on one worker incur no
// network traffic) and L^max is the total output rate of the s tasks with the
// highest U_net (the set T_net with |T_net| = s).
type Bounds struct {
	Min Vector
	Max Vector
}

// ComputeBounds derives the load bounds for physical graph p, task usage u,
// numWorkers workers with slotsPerWorker slots each.
func ComputeBounds(p *dataflow.PhysicalGraph, u *Usage, numWorkers, slotsPerWorker int) Bounds {
	// Tasks of the same operator share one usage vector, so the per-task
	// extrema reduce to weighted per-operator values: O(ops log ops) instead
	// of sorting a slice with one entry per task.
	ops := p.Logical.Operators()
	type weighted struct {
		v float64
		n int
	}
	var total Vector
	cpus := make([]weighted, 0, len(ops))
	ios := make([]weighted, 0, len(ops))
	nets := make([]weighted, 0, len(ops))
	for _, op := range ops {
		uv := u.Task(op.ID)
		n := p.NumTasksOf(op.ID)
		for i := 0; i < n; i++ {
			total = total.Add(uv)
		}
		cpus = append(cpus, weighted{uv.CPU, n})
		ios = append(ios, weighted{uv.IO, n})
		nets = append(nets, weighted{uv.Net, n})
	}
	// Repeated addition (not v*n) keeps the sums bitwise identical to the
	// per-task formulation this replaces.
	topSum := func(xs []weighted, k int) float64 {
		sort.Slice(xs, func(i, j int) bool { return xs[i].v > xs[j].v })
		s := 0.0
		for _, x := range xs {
			for i := 0; i < x.n && k > 0; i, k = i+1, k-1 {
				s += x.v
			}
		}
		return s
	}
	nw := float64(numWorkers)
	return Bounds{
		Min: Vector{CPU: total.CPU / nw, IO: total.IO / nw, Net: 0},
		Max: Vector{
			CPU: topSum(cpus, slotsPerWorker),
			IO:  topSum(ios, slotsPerWorker),
			Net: topSum(nets, slotsPerWorker),
		},
	}
}

// WorkerLoads computes, for every worker, the accumulated load vector under
// plan f: Eq. 5 for CPU and state access, Eq. 8 for network, where a task's
// output rate U_net(t) is split evenly across its |D(t)| downstream links and
// only cross-worker links D_r(f,t) contribute to the origin worker's load.
func WorkerLoads(p *dataflow.PhysicalGraph, f *dataflow.Plan, u *Usage, numWorkers int) []Vector {
	loads := make([]Vector, numWorkers)
	for _, t := range p.Tasks() {
		w := f.MustWorker(t)
		uv := u.Task(t.Op)
		loads[w].CPU += uv.CPU
		loads[w].IO += uv.IO
		out := p.Out(t)
		if len(out) == 0 || uv.Net == 0 {
			continue
		}
		remote := 0
		for _, ch := range out {
			if f.MustWorker(ch.To) != w {
				remote++
			}
		}
		loads[w].Net += uv.Net * float64(remote) / float64(len(out))
	}
	return loads
}

// MaxLoad returns the element-wise maximum across the per-worker load
// vectors, i.e. the bottleneck load L_i(f) in each dimension.
func MaxLoad(loads []Vector) Vector {
	var m Vector
	for _, l := range loads {
		m = m.Max(l)
	}
	return m
}

// normalize applies Eq. 4: (L(f) - Lmin) / (Lmax - Lmin), clamped to [0,1],
// with the degenerate case Lmax == Lmin mapping to cost 0 (all plans
// equivalent in that dimension).
func normalize(l, lmin, lmax float64) float64 {
	const eps = 1e-12
	if lmax-lmin <= eps {
		return 0
	}
	c := (l - lmin) / (lmax - lmin)
	if c < 0 {
		return 0
	}
	if c > 1 {
		return 1
	}
	return c
}

// PlanCost computes the cost vector C(f) = [C_cpu, C_io, C_net] of a complete
// placement plan (Eqs. 4-8).
func PlanCost(p *dataflow.PhysicalGraph, f *dataflow.Plan, u *Usage, b Bounds, numWorkers int) Vector {
	l := MaxLoad(WorkerLoads(p, f, u, numWorkers))
	return Vector{
		CPU: normalize(l.CPU, b.Min.CPU, b.Max.CPU),
		IO:  normalize(l.IO, b.Min.IO, b.Max.IO),
		Net: normalize(l.Net, b.Min.Net, b.Max.Net),
	}
}

// CostFromLoad converts a bottleneck load vector into a cost vector using
// bounds b. It is used by the CAPS search, which maintains loads
// incrementally.
func CostFromLoad(l Vector, b Bounds) Vector {
	return Vector{
		CPU: normalize(l.CPU, b.Min.CPU, b.Max.CPU),
		IO:  normalize(l.IO, b.Min.IO, b.Max.IO),
		Net: normalize(l.Net, b.Min.Net, b.Max.Net),
	}
}

// LoadBudget inverts Eq. 10: the maximum per-worker load vector permitted by
// threshold vector alpha, L_i^min + alpha_i * (L_i^max - L_i^min). A partial
// plan whose accumulated load on any worker exceeds the budget in any
// dimension can be pruned safely because loads grow monotonically as tasks
// are added.
func LoadBudget(b Bounds, alpha Vector) Vector {
	budget := func(min, max, a float64) float64 {
		if math.IsInf(a, 1) {
			// Unbounded dimension; also avoids Inf*0 = NaN when max == min.
			return math.Inf(1)
		}
		return min + a*(max-min)
	}
	return Vector{
		CPU: budget(b.Min.CPU, b.Max.CPU, alpha.CPU),
		IO:  budget(b.Min.IO, b.Max.IO, alpha.IO),
		Net: budget(b.Min.Net, b.Max.Net, alpha.Net),
	}
}

// ParetoFront filters costs down to the non-dominated subset and returns the
// indices of surviving elements in their original order. Among equal-cost
// entries, the first is kept.
func ParetoFront(costs []Vector) []int {
	var keep []int
	for i, ci := range costs {
		dominated := false
		for j, cj := range costs {
			if i == j {
				continue
			}
			if cj.Dominates(ci) {
				dominated = true
				break
			}
			// Exact ties: keep only the first occurrence.
			if cj == ci && j < i {
				dominated = true
				break
			}
		}
		if !dominated {
			keep = append(keep, i)
		}
	}
	return keep
}

// ScalarCost reduces a cost vector to a single comparable number (the sum of
// dimensions). It is used to pick one plan from a Pareto front and for
// deterministic tie-breaking; the search itself always reasons with full
// vectors.
func ScalarCost(v Vector) float64 { return v.CPU + v.IO + v.Net }
