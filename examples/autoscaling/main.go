// Autoscaling: close the loop between DS2 scaling decisions and live
// rescaling. An under-provisioned Q1-sliding runs on the live engine to
// profile per-task rates; DS2 turns the profile into a per-operator
// parallelism decision; the decision becomes a live rescale schedule —
// drain to a checkpoint epoch, repartition the window operator's
// key-groups, re-place with CAPS, resume — and the measured downtime of
// every applied decision is printed from the engine's trace events.
//
// Run with:
//
//	go run ./examples/autoscaling
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"capsys/internal/cluster"
	"capsys/internal/controller"
	"capsys/internal/dataflow"
	"capsys/internal/ds2"
	"capsys/internal/engine"
	"capsys/internal/nexmark"
	"capsys/internal/placement"
	"capsys/internal/telemetry"
)

const (
	recordsPerSource = 4000
	snapshotInterval = 250
	seed             = 11
)

func main() {
	if err := run(context.Background()); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context) error {
	// Start under-provisioned: the window operator at a fraction of the
	// parallelism the target rate needs.
	stock, err := nexmark.ByName("Q1-sliding")
	if err != nil {
		return err
	}
	small, err := stock.Graph.Rescale(map[dataflow.OperatorID]int{"map": 2, "slide-win": 2})
	if err != nil {
		return err
	}
	spec := nexmark.QuerySpec{Name: stock.Name, Graph: small, SourceRates: stock.SourceRates}
	pool, err := cluster.Homogeneous(4, 6, 2.0, 50e6, 500e6)
	if err != nil {
		return err
	}
	// Throttle each source task to its share of the query's target rate,
	// so the profile observes the operators under the load DS2 plans for.
	perTask := spec.SourceRates["src"] / float64(small.Operator("src").Parallelism)
	sourceRate := map[dataflow.OperatorID]float64{"src": perTask}

	// One launch for both live runs: CAPS places the small topology, and
	// re-places whatever a later run rescales.
	d, err := controller.Launch(ctx, spec, pool, placement.CAPS{}, controller.LaunchOptions{Seed: seed})
	if err != nil {
		return err
	}
	opts := engine.JobOptions{
		RecordsPerSource: recordsPerSource,
		SnapshotInterval: snapshotInterval,
		SourceRate:       sourceRate,
	}

	// Phase 1 — profile: run the small topology live and collect per-task
	// observed rates and useful fractions.
	fmt.Println("phase 1: profiling the under-provisioned topology on the live engine")
	profile, err := d.Run(ctx, opts)
	if err != nil {
		return err
	}
	obs := make(map[dataflow.TaskID]ds2.TaskRates, len(profile.Result.Tasks))
	for id, st := range profile.Result.Tasks {
		obs[id] = ds2.TaskRates{
			ObservedIn:     st.ObservedInRate,
			ObservedOut:    st.ObservedOutRate,
			UsefulFraction: st.UsefulFraction,
		}
	}
	m, err := ds2.MetricsFromObservation(small, obs)
	if err != nil {
		return err
	}

	// Phase 2 — decide: DS2 computes the parallelism the target rate needs.
	dec, err := ds2.Scale(small, m, spec.SourceRates, ds2.Options{MaxParallelism: 8, Headroom: 1.1})
	if err != nil {
		return err
	}
	fmt.Println("\nphase 2: DS2 decision")
	for _, op := range small.Operators() {
		to, ok := dec.Parallelism[op.ID]
		if !ok {
			to = op.Parallelism
		}
		marker := ""
		if to != op.Parallelism {
			marker = "  <- rescale"
		}
		fmt.Printf("  %-10s %d -> %d%s\n", op.ID, op.Parallelism, to, marker)
	}
	plans := controller.PlansFromDecision(dec, small, 2)
	if len(plans) == 0 {
		fmt.Println("\nDS2 is satisfied with the current parallelism; nothing to rescale.")
		return nil
	}

	// Phase 3 — apply live: the same job runs again and each decision is
	// applied in place at a checkpoint epoch, with CAPS re-placing the
	// rescaled graph. No restart, no lost records.
	fmt.Printf("\nphase 3: applying %d decision(s) live (drain -> repartition key-groups -> CAPS re-place -> resume)\n", len(plans))
	tel := telemetry.New()
	opts.Rescales, opts.Telemetry = plans, tel
	out, err := d.Run(ctx, opts)
	if err != nil {
		return err
	}
	res := out.Result
	fmt.Printf("%4s  %-10s %8s %12s %14s\n", "epoch", "operator", "change", "downtime", "state moved")
	moved := map[string]float64{}
	for _, ev := range tel.Tracer().Events() {
		switch ev.Kind {
		case telemetry.EventRescaleStart:
			moved[ev.Op] = attrFloat(ev.Attrs["state_moved_bytes"])
		case telemetry.EventRescaleComplete:
			fmt.Printf("%4d  %-10s %4v->%-3v %10.1fms %12.0f B\n",
				ev.Epoch, ev.Op, ev.Attrs["from"], ev.Attrs["to"],
				attrFloat(ev.Attrs["downtime_ms"]), moved[ev.Op])
		}
	}
	fmt.Printf("\napplied %d rescale(s): total downtime %v, %d records reprocessed, %d lost, %d delivered\n",
		res.Rescales, res.RescaleDowntime.Round(time.Millisecond),
		res.RecordsReprocessed, res.LostRecords, res.SinkRecords)
	if res.LostRecords != 0 {
		return fmt.Errorf("live rescale lost %d records", res.LostRecords)
	}
	return nil
}

// attrFloat reads a numeric trace-event attribute regardless of whether the
// emitter stored it as an int, int64 or float64.
func attrFloat(v any) float64 {
	switch n := v.(type) {
	case float64:
		return n
	case int64:
		return float64(n)
	case int:
		return float64(n)
	}
	return 0
}
