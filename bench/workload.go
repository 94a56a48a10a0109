package main

import (
	"context"
	"fmt"
	"time"

	"capsys/internal/dataflow"
	"capsys/internal/engine"
	"capsys/internal/telemetry"
)

// repMode says how one repetition runs.
type repMode struct {
	// paced runs the open-loop phase: sources at the workload's frozen
	// rate, records stamped with their due time, latency taken at the sink.
	paced bool
	// warm runs a tenth of the records and skips the output check; it is
	// the warm-up repetition counted into setup_s.
	warm bool
	// tr, when set, wraps the bench's calls in spans and samples the
	// bench-owned operator callbacks.
	tr *tracer
	// tel, when set, attaches a telemetry hub to the job (the
	// telemetry-on repetition of the traced run).
	tel *telemetry.Telemetry
	// defaultPlan runs placed-q3inf under the "default" strategy's plan.
	defaultPlan bool
}

// repOut is what one repetition produced.
type repOut struct {
	ops     int64         // attempted: source records, or placement decisions
	failed  int64         // lost, missing or extra records; infeasible or invalid decisions
	elapsed time.Duration // the job's own wall clock (JobResult.Elapsed), or the decisions' wall time
	res     *engine.JobResult
	lat     []int64 // ns: record latency due→sink (paced), or one entry per decision
	late    []int64 // ns: how late the paced generator emitted versus due time
	// overrunPct is how far a paced run overran its schedule; above
	// maxOverrunPct it did not sustain its rate.
	overrunPct float64
	// layer carries the workload's own per-layer numbers (caps.*,
	// controller.*, ...), merged into the result under these names.
	layer map[string]float64
}

// instance is one set-up of a workload: graphs, plans, payloads built, ready
// to run repetitions.
type instance interface {
	// reference runs the reference computation the repetitions are checked
	// against and keeps its fingerprint.
	reference(ctx context.Context) error
	rep(ctx context.Context, m repMode) (*repOut, error)
}

// workload is one entry of the benchmark.
type workload struct {
	name string
	// hasPaced is false when the saturated repetitions already yield the
	// latency samples (search-scale: one per decision).
	hasPaced bool
	setup    func(ctx context.Context, p params, seed int64, tr *tracer) (instance, error)
}

func workloads() []workload {
	return []workload{
		{name: "linear-fused", hasPaced: true, setup: setupLinear},
		{name: "fanout-net", hasPaced: true, setup: setupFanout},
		{name: "nexjoin-dist", hasPaced: true, setup: setupNexjoin},
		{name: "keyed-lifecycle", hasPaced: true, setup: setupKeyed},
		{name: "placed-q3inf", hasPaced: true, setup: setupPlaced},
		{name: "search-scale", setup: setupSearch},
	}
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// --- helpers shared by the engine workloads ---------------------------------

// unmeteredWorkers is a cluster whose meters never bind, so the data plane
// itself is what a run measures.
func unmeteredWorkers(n, slots int) engine.ClusterSpec {
	ws := make([]engine.WorkerSpec, n)
	for i := range ws {
		ws[i] = engine.WorkerSpec{ID: fmt.Sprintf("w%d", i), Slots: slots, Cores: 1e6, IOBps: 1e12, NetBps: 1e12}
	}
	return engine.ClusterSpec{Workers: ws}
}

func buildGraph(ops []dataflow.Operator, edges []dataflow.Edge) (*dataflow.LogicalGraph, error) {
	g := dataflow.NewLogicalGraph()
	for _, op := range ops {
		if err := g.AddOperator(op); err != nil {
			return nil, err
		}
	}
	for _, e := range edges {
		if err := g.AddEdge(e); err != nil {
			return nil, err
		}
	}
	return g, nil
}

func roundRobinPlan(g *dataflow.LogicalGraph, workers int) (*dataflow.Plan, error) {
	phys, err := dataflow.Expand(g)
	if err != nil {
		return nil, err
	}
	pl := dataflow.NewPlanSized(phys.NumTasks())
	for i, t := range phys.Tasks() {
		pl.Assign(t, i%workers)
	}
	return pl, nil
}

// maxOverrunPct is the schedule overrun beyond which a paced repetition is
// flagged sustained=false.
const maxOverrunPct = 5

// runKit is what an engine repetition needs besides its job: its size and
// rate, the sinks that fingerprint it and the stampers that pace it.
type runKit struct {
	n     int64   // records per source task
	rate  float64 // aggregate paced source rate; 0 = saturated
	sinks *sinkSet
	gens  *stamperSet
}

// newRunKit sizes one repetition. sinkPerN is the sink's record count per
// record of one source task, which sizes the latency slice of a paced run.
func newRunKit(m repMode, perSource int64, pacedRate float64, sinkPerN int) runKit {
	k := runKit{n: perSource, sinks: newSinkSet(), gens: &stamperSet{}}
	if m.warm {
		k.n /= 10
	}
	k.sinks.tr = m.tr
	if m.paced {
		k.rate = pacedRate
		k.sinks.stamped, k.sinks.latCap = true, int(k.n)*sinkPerN
	}
	return k
}

// referenceRun runs the job build returns — the workload on the unary
// transport, unfused — and returns its sink fingerprints.
func referenceRun(ctx context.Context, build func(*sinkSet) (*engine.Job, error)) (want, error) {
	sinks := newSinkSet()
	sinks.both = true
	job, err := build(sinks)
	if err != nil {
		return want{}, err
	}
	if _, err := job.Run(ctx); err != nil {
		return want{}, err
	}
	return want{withTime: sinks.digest(), noTime: sinks.digestNoTime()}, nil
}

// want is the reference fingerprint of a workload's sink output.
type want struct {
	withTime, noTime digest
}

// mismatch counts the records by which got departs from the reference: the
// count difference, or — same count, different content — the whole output.
func (w want) mismatch(got digest, stamped bool) int64 {
	ref := w.withTime
	if stamped {
		ref = w.noTime
	}
	if d := got.Count - ref.Count; d != 0 {
		if d < 0 {
			d = -d
		}
		return d
	}
	if got.Sum != ref.Sum {
		return ref.Count
	}
	return 0
}

// engineRun runs one built job, timing Run in a span, and folds the sink
// check into a repOut.
func engineRun(ctx context.Context, m repMode, job *engine.Job, sinks *sinkSet, w want, gens *stamperSet) (*repOut, error) {
	var res *engine.JobResult
	err := m.tr.do("engine", "Job.Run", func() (err error) {
		res, err = job.Run(ctx)
		return err
	})
	if err != nil {
		return nil, err
	}
	return finishRun(m, res, sinks, w, gens), nil
}

func finishRun(m repMode, res *engine.JobResult, sinks *sinkSet, w want, gens *stamperSet) *repOut {
	out := &repOut{ops: res.SourceRecords, elapsed: res.Elapsed, res: res, layer: map[string]float64{}}
	out.failed = res.LostRecords
	if res.Failed {
		out.failed += res.SourceRecords
	}
	if !m.warm {
		out.failed += w.mismatch(sinks.digest(), m.paced)
	}
	if m.paced {
		out.lat = sinks.latencies()
		for _, g := range gens.list {
			out.late = append(out.late, g.late...)
			if o := g.overrunPct(); o > out.overrunPct {
				out.overrunPct = o
			}
		}
	}
	return out
}
