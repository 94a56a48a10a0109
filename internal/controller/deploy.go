package controller

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"capsys/internal/cluster"
	"capsys/internal/costmodel"
	"capsys/internal/dataflow"
	"capsys/internal/engine"
	"capsys/internal/nexmark"
	"capsys/internal/placement"
	"capsys/internal/simulator"
)

// Deployment is a fully prepared query deployment: the query, its physical
// graph and the plan placing it. DeploySingle and DeployAll prepare them for
// the simulator; Launch prepares one that also runs live (Run, RunRecovery,
// Coordinator).
type Deployment struct {
	Spec nexmark.QuerySpec
	Phys *dataflow.PhysicalGraph
	Plan *dataflow.Plan
	// PlacementTime is how long the strategy took to decide Plan (zero for a
	// plan that was given).
	PlacementTime time.Duration

	// The live half, filled by Launch.
	cluster *cluster.Cluster
	strat   placement.Strategy // nil = plan-only
	usage   *costmodel.Usage
	binding *nexmark.EngineBinding
	launch  LaunchOptions
}

// EngineCluster converts the controller's cluster view into the live
// engine's worker spec. Every deployment path onto the engine (recovery
// runs, live CLI jobs, experiments) goes through this one translation.
func EngineCluster(c *cluster.Cluster) engine.ClusterSpec {
	spec := engine.ClusterSpec{}
	for i := 0; i < c.NumWorkers(); i++ {
		w := c.Worker(i)
		spec.Workers = append(spec.Workers, engine.WorkerSpec{
			ID: w.ID, Slots: w.Slots, Cores: w.CPU, IOBps: w.IOBandwidth, NetBps: w.NetBandwidth,
		})
	}
	return spec
}

// UsageOf derives the task usage vectors from a query's (profiled) graph
// and target source rates — the one PropagateRates → FromRates derivation
// placement callers share.
func UsageOf(g *dataflow.LogicalGraph, sourceRates map[dataflow.OperatorID]float64) (*costmodel.Usage, error) {
	rates, err := dataflow.PropagateRates(g, sourceRates)
	if err != nil {
		return nil, err
	}
	return costmodel.FromRates(g, rates), nil
}

// placeOn is the controller's one placement step. It places phys with strat
// on the workers of c that have free slots — free[w] of worker w's, all of
// them when free is nil — warm-starting from prev when the strategy can, and
// returns the plan in c's worker indices. prev may name tasks phys no longer
// has; only assignments of phys's tasks to workers in the view seed the
// search. It fails explicitly when the free slots cannot host phys, never
// returning a partial plan.
func placeOn(ctx context.Context, phys *dataflow.PhysicalGraph, c *cluster.Cluster, free []int, strat placement.Strategy, u *costmodel.Usage, seed int64, prev *dataflow.Plan) (*dataflow.Plan, error) {
	var viewWorkers []cluster.Worker
	var backing []int
	viewOf := make(map[int]int, c.NumWorkers())
	slots := 0
	for w := 0; w < c.NumWorkers(); w++ {
		vw := c.Worker(w)
		if free != nil {
			vw.Slots = free[w]
		}
		if vw.Slots <= 0 {
			continue
		}
		viewOf[w] = len(viewWorkers)
		viewWorkers = append(viewWorkers, vw)
		backing = append(backing, w)
		slots += vw.Slots
	}
	if slots < phys.NumTasks() {
		return nil, fmt.Errorf("controller: %d free slots for %d tasks", slots, phys.NumTasks())
	}
	view, err := cluster.New(viewWorkers)
	if err != nil {
		return nil, err
	}
	var vplan *dataflow.Plan
	if wp, ok := strat.(placement.WarmPlacer); ok && prev != nil {
		vprev := dataflow.NewPlan()
		for _, t := range phys.Tasks() {
			if w, ok := prev.Worker(t); ok {
				if vw, in := viewOf[w]; in {
					vprev.Assign(t, vw)
				}
			}
		}
		vplan, err = wp.PlaceWarm(ctx, phys, view, u, seed, vprev)
	} else {
		vplan, err = strat.Place(ctx, phys, view, u, seed)
	}
	if err != nil {
		return nil, err
	}
	plan := dataflow.NewPlan()
	for _, t := range phys.Tasks() {
		vw, ok := vplan.Worker(t)
		if !ok {
			return nil, fmt.Errorf("controller: placement left task %v unassigned", t)
		}
		plan.Assign(t, backing[vw])
	}
	return plan, nil
}

// DeploySingle prepares one query on the cluster with the given strategy
// and evaluates it on the simulator. It is the workflow behind the paper's
// single-query experiments (§6.2.1).
func DeploySingle(ctx context.Context, spec nexmark.QuerySpec, c *cluster.Cluster, strat placement.Strategy, seed int64, cfg simulator.Config) (*Deployment, *simulator.Result, error) {
	phys, err := dataflow.Expand(spec.Graph)
	if err != nil {
		return nil, nil, err
	}
	u, err := UsageOf(spec.Graph, spec.SourceRates)
	if err != nil {
		return nil, nil, err
	}
	plan, err := strat.Place(ctx, phys, c, u, seed)
	if err != nil {
		return nil, nil, err
	}
	dep := &Deployment{Spec: spec, Phys: phys, Plan: plan}
	res, err := simulator.Evaluate([]simulator.QueryDeployment{{
		Name: spec.Name, Phys: phys, Plan: plan, SourceRates: spec.SourceRates,
	}}, c, cfg)
	if err != nil {
		return nil, nil, err
	}
	return dep, res, nil
}

// DeployAll places a multi-query workload on one shared cluster and
// evaluates it (§6.2.2).
//
// With a CAPS strategy the entire workload is merged into a single dataflow
// graph and placed globally, accounting for cross-query contention. With the
// Flink baselines, queries are placed one at a time in a seed-shuffled
// submission order (the baselines are order-sensitive, which is why the
// paper randomizes submission order across runs), each seeing only the slots
// left over by its predecessors.
func DeployAll(ctx context.Context, specs []nexmark.QuerySpec, c *cluster.Cluster, strat placement.Strategy, seed int64, cfg simulator.Config) ([]Deployment, *simulator.Result, error) {
	if len(specs) == 0 {
		return nil, nil, fmt.Errorf("controller: no queries")
	}
	var deps []Deployment
	var err error
	if strat.Name() == "caps" {
		deps, err = placeJointly(ctx, specs, c, strat, seed)
	} else {
		deps, err = placeSequentially(ctx, specs, c, strat, seed)
	}
	if err != nil {
		return nil, nil, err
	}
	var sdeps []simulator.QueryDeployment
	for _, d := range deps {
		sdeps = append(sdeps, simulator.QueryDeployment{
			Name: d.Spec.Name, Phys: d.Phys, Plan: d.Plan, SourceRates: d.Spec.SourceRates,
		})
	}
	res, err := simulator.Evaluate(sdeps, c, cfg)
	if err != nil {
		return nil, nil, err
	}
	return deps, res, nil
}

// qualify namespaces an operator ID with its query name.
func qualify(query string, id dataflow.OperatorID) dataflow.OperatorID {
	return dataflow.OperatorID(query + "/" + string(id))
}

// placeJointly merges all queries into one logical graph (operator IDs
// namespaced by query) and runs the strategy once over the union.
func placeJointly(ctx context.Context, specs []nexmark.QuerySpec, c *cluster.Cluster, strat placement.Strategy, seed int64) ([]Deployment, error) {
	merged := dataflow.NewLogicalGraph()
	mergedRates := make(map[dataflow.OperatorID]float64)
	for _, spec := range specs {
		for _, op := range spec.Graph.Operators() {
			cp := *op
			cp.ID = qualify(spec.Name, op.ID)
			if err := merged.AddOperator(cp); err != nil {
				return nil, err
			}
		}
		for _, e := range spec.Graph.Edges() {
			if err := merged.AddEdge(dataflow.Edge{
				From: qualify(spec.Name, e.From),
				To:   qualify(spec.Name, e.To),
				Mode: e.Mode,
			}); err != nil {
				return nil, err
			}
		}
		for id, r := range spec.SourceRates {
			mergedRates[qualify(spec.Name, id)] = r
		}
	}
	mergedPhys, err := dataflow.Expand(merged)
	if err != nil {
		return nil, err
	}
	u, err := UsageOf(merged, mergedRates)
	if err != nil {
		return nil, err
	}
	plan, err := strat.Place(ctx, mergedPhys, c, u, seed)
	if err != nil {
		return nil, err
	}
	// Split the global plan back into per-query plans.
	out := make([]Deployment, 0, len(specs))
	for _, spec := range specs {
		phys, err := dataflow.Expand(spec.Graph)
		if err != nil {
			return nil, err
		}
		pl := dataflow.NewPlan()
		for _, t := range phys.Tasks() {
			w, ok := plan.Worker(dataflow.TaskID{Op: qualify(spec.Name, t.Op), Index: t.Index})
			if !ok {
				return nil, fmt.Errorf("controller: joint plan missing task %v of %s", t, spec.Name)
			}
			pl.Assign(t, w)
		}
		out = append(out, Deployment{Spec: spec, Phys: phys, Plan: pl})
	}
	return out, nil
}

// placeSequentially deploys queries one at a time in a seed-shuffled order,
// exposing to each query only the slots its predecessors left free.
func placeSequentially(ctx context.Context, specs []nexmark.QuerySpec, c *cluster.Cluster, strat placement.Strategy, seed int64) ([]Deployment, error) {
	order := rand.New(rand.NewSource(seed)).Perm(len(specs))
	free := make([]int, c.NumWorkers())
	for w := range free {
		free[w] = c.Worker(w).Slots
	}
	out := make([]Deployment, len(specs))
	for submitIdx, qi := range order {
		spec := specs[qi]
		phys, err := dataflow.Expand(spec.Graph)
		if err != nil {
			return nil, err
		}
		u, err := UsageOf(spec.Graph, spec.SourceRates)
		if err != nil {
			return nil, err
		}
		plan, err := placeOn(ctx, phys, c, free, strat, u, seed+int64(submitIdx)+1, nil)
		if err != nil {
			return nil, fmt.Errorf("controller: placing %s: %w", spec.Name, err)
		}
		for _, t := range phys.Tasks() {
			free[plan.MustWorker(t)]--
		}
		out[qi] = Deployment{Spec: spec, Phys: phys, Plan: plan}
	}
	return out, nil
}
