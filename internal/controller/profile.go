// Package controller implements the CAPSys adaptive resource controller
// (paper §5, Figure 6): it profiles operator resource costs by deploying
// each operator on a dedicated worker, derives per-operator parallelism with
// the DS2 scaling model, computes a task placement with a pluggable
// placement strategy (CAPS by default), and deploys the result onto either
// executor — the contention simulator that stands in for a Flink cluster, or
// the live engine (Launch). Both executors report to it in one shape
// (Observation), so every decision reads the same measurements whichever ran.
//
// The controller also provides the multi-tenant joint deployment used in the
// paper's §6.2.2 (CAPSys views the whole workload as a single dataflow and
// optimizes placement globally) and the variable-workload reconfiguration
// loop of §6.4.
package controller

import (
	"fmt"

	"capsys/internal/cluster"
	"capsys/internal/dataflow"
	"capsys/internal/nexmark"
)

// Profile lays out the paper's profiling deployment (§5.1): every operator's
// tasks on a dedicated, generously provisioned worker, so co-location never
// distorts a measurement, and the source rates scaled by probeFraction, so
// nothing saturates. It returns the cluster, the plan and the probe rates.
// Run the layout on either executor — simulator.Evaluate, or Launch with
// LaunchOptions.Plan and Run with SourceRate set to the probe rates — and
// fold its observation into an OnlineProfiler, which divides each operator's
// measured resource use by its rate.
//
// Profiling runs once per query; reconfigurations reuse the stored unit
// costs by multiplying them with the new target rates.
func Profile(spec nexmark.QuerySpec, probeFraction float64) (*cluster.Cluster, *dataflow.Plan, map[dataflow.OperatorID]float64, error) {
	if probeFraction <= 0 || probeFraction > 1 {
		return nil, nil, nil, fmt.Errorf("controller: probe fraction %v outside (0,1]", probeFraction)
	}
	ops := spec.Graph.Operators()
	maxPar := 0
	for _, op := range ops {
		maxPar = max(maxPar, op.Parallelism)
	}
	workers := make([]cluster.Worker, len(ops))
	plan := dataflow.NewPlan()
	for i, op := range ops {
		workers[i] = cluster.Worker{
			ID:           fmt.Sprintf("profiler-%d", i),
			Slots:        maxPar,
			CPU:          1e9,
			IOBandwidth:  1e15,
			NetBandwidth: 1e15,
		}
		for j := 0; j < op.Parallelism; j++ {
			plan.Assign(dataflow.TaskID{Op: op.ID, Index: j}, i)
		}
	}
	c, err := cluster.New(workers)
	if err != nil {
		return nil, nil, nil, err
	}
	return c, plan, scaleRates(spec.SourceRates, probeFraction), nil
}
