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
	used := make([]int, c.NumWorkers())
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
		// Build a view of the cluster restricted to free slots, keeping a
		// mapping from view worker index back to the real index.
		var viewWorkers []cluster.Worker
		var backing []int
		for w := 0; w < c.NumWorkers(); w++ {
			free := c.Worker(w).Slots - used[w]
			if free <= 0 {
				continue
			}
			vw := c.Worker(w)
			vw.Slots = free
			viewWorkers = append(viewWorkers, vw)
			backing = append(backing, w)
		}
		if len(viewWorkers) == 0 {
			return nil, fmt.Errorf("controller: no free slots for query %s", spec.Name)
		}
		view, err := cluster.New(viewWorkers)
		if err != nil {
			return nil, err
		}
		plan, err := strat.Place(ctx, phys, view, u, seed+int64(submitIdx)+1)
		if err != nil {
			return nil, fmt.Errorf("controller: placing %s: %w", spec.Name, err)
		}
		real := dataflow.NewPlan()
		for _, t := range phys.Tasks() {
			vw := plan.MustWorker(t)
			real.Assign(t, backing[vw])
			used[backing[vw]]++
		}
		out[qi] = Deployment{Spec: spec, Phys: phys, Plan: real}
	}
	return out, nil
}
