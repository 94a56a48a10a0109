package controller

import (
	"capsys/internal/dataflow"
	"capsys/internal/ds2"
	"capsys/internal/engine"
	"capsys/internal/simulator"
)

// TaskObservation is one task's measured behaviour over a run, in the one
// shape every controller decision reads, whichever executor ran: the
// simulator's steady state (ObserveSim) or a live engine run (ObserveRun).
type TaskObservation struct {
	// In and Out are the records per second the task consumed and emitted. A
	// generator source consumes nothing: the engine reports In = 0 for it,
	// the simulator In = Out.
	In, Out float64
	// Useful is the fraction of the run the task spent processing.
	Useful float64
	// CPU, IO and Net are the task's resource use per second: core-seconds of
	// processing, state-access bytes, and bytes emitted downstream (local
	// edges included, as Flink's numBytesOut counts them — the per-record
	// network cost the model charges to every remote edge).
	CPU, IO, Net float64
}

// Observation is one run's TaskObservations.
type Observation map[dataflow.TaskID]TaskObservation

// ObserveSim reads query's tasks out of a simulator result. CPU is the
// apparent per-record time, inflated by contention slowdown, times the rate:
// what a profiler timing the task would see.
func ObserveSim(res *simulator.Result, query string) Observation {
	obs := make(Observation)
	for k, tm := range res.Tasks {
		if k.Query == query {
			obs[k.Task] = TaskObservation{
				In: tm.ObservedInRate, Out: tm.ObservedOutRate, Useful: tm.UsefulFraction,
				CPU: tm.ApparentCPUPerRecord * tm.ObservedInRate, IO: tm.StateBytesRate, Net: tm.EmittedBytesRate,
			}
		}
	}
	return obs
}

// ObserveRun reads every task of a live engine run: rates and useful
// fractions as the result derived them, CPU and IO from the task's meter
// draws, Net from the bytes it emitted. A run without elapsed time (only
// possible under a frozen injected clock) observes zeros.
func ObserveRun(res *engine.JobResult) Observation {
	obs := make(Observation, len(res.Tasks))
	el := res.Elapsed.Seconds()
	for id, ts := range res.Tasks {
		o := TaskObservation{In: ts.ObservedInRate, Out: ts.ObservedOutRate, Useful: ts.UsefulFraction}
		if el > 0 {
			o.CPU, o.IO, o.Net = ts.CPUDraw/el, ts.IODraw/el, float64(ts.BytesOut)/el
		}
		obs[id] = o
	}
	return obs
}

// Scale runs DS2 on an observation of graph g: the one conversion from
// observed tasks to DS2's input. A useful fraction is clamped into (0,1], so
// a task that sat idle for the whole run counts as barely busy instead of
// failing the decision.
func (o Observation) Scale(g *dataflow.LogicalGraph, sourceTargets map[dataflow.OperatorID]float64, opts ds2.Options) (*ds2.Decision, error) {
	rates := make(map[dataflow.TaskID]ds2.TaskRates, len(o))
	for id, t := range o {
		useful := t.Useful
		if useful <= 0 {
			useful = 1e-9
		}
		rates[id] = ds2.TaskRates{ObservedIn: t.In, ObservedOut: t.Out, UsefulFraction: min(useful, 1)}
	}
	m, err := ds2.MetricsFromObservation(g, rates)
	if err != nil {
		return nil, err
	}
	return ds2.Scale(g, m, sourceTargets, opts)
}
