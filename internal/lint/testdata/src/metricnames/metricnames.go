// Package controller is a capslint fixture exercising the metricnames
// analyzer against the real registry and telemetry hub types.
package controller

import (
	"fmt"

	"capsys/internal/metrics"
	"capsys/internal/telemetry"
)

// Register creates one clean series, one malformed literal, one cleanly
// folding concatenation and one concatenation whose constant shape is
// already illegal.
func Register(reg *metrics.Registry, tel *telemetry.Telemetry, task string) {
	reg.Counter("records_total").Inc(1)
	reg.Gauge("Worker-CPU%").Set(0.5)
	reg.Time("rate." + task).Add(1)
	reg.Time("rate/" + task).Add(1)
	tel.Histogram("latency.sink").Observe(0.001)
}

// Folded exercises compile-time folding: constant identifiers and concats
// of them validate on the folded value; Sprintf with a constant format
// validates on the verb-skeleton.
func Folded(reg *metrics.Registry, shardIdx int) {
	const family = "records"
	const badFamily = "Records%"
	reg.Counter(family + "_total").Inc(1)
	reg.Counter(badFamily).Inc(1)
	reg.Gauge(fmt.Sprintf("meter.cpu.shard.%d", shardIdx)).Set(0.5)
	reg.Gauge(fmt.Sprintf("Shard-%d-CPU", shardIdx)).Set(0.5)
}

// Aggregate exercises the cluster-plane name families the coordinator
// maintains: names built by opaque helper calls stay unverifiable and carry
// the deliberate-dynamic annotation (or are a finding without one), while a
// concatenation of the same shape folds to a clean skeleton and needs no
// annotation; callback-gauge families stay literal.
func Aggregate(reg *metrics.Registry, tel *telemetry.Telemetry, worker string) {
	//capslint:allow metricnames worker-keyed series from heartbeat aggregation
	reg.Counter(metrics.WorkerMetricName(worker, "net.frames_sent")).Inc(1)
	reg.Counter(metrics.ClusterMetricName("net.frames_sent")).Inc(1)
	reg.Gauge("worker." + worker + ".trace_dropped").Set(1)
	tel.SetGaugeFunc("cluster_workers_alive", nil, func() float64 { return 3 })
}

// Rescale exercises the elastic-rescale name families: the engine's keyed
// state gauges (literal families with a task label), the job-level rescale
// accounting counters, and the controller's re-placement timers are all
// literal dotted names and must stay clean; a per-operator downtime series
// built with an illegal separator is a finding.
func Rescale(reg *metrics.Registry, tel *telemetry.Telemetry, op string) {
	tel.SetGaugeFunc("state.bytes", map[string]string{"task": op}, func() float64 { return 0 })
	tel.SetGaugeFunc("state.keys", map[string]string{"task": op}, func() float64 { return 0 })
	reg.Gauge("state.total_bytes").Set(0)
	reg.Gauge("state.total_keys").Set(0)
	reg.Gauge("state.namespaces").Set(0)
	reg.Counter("job.rescales").Inc(1)
	reg.Gauge("job.rescale_downtime_seconds").Set(0.1)
	reg.Counter("job.rescale_moved_bytes").Inc(1 << 10)
	reg.Gauge("controller.placement_seconds").Set(0.01)
	reg.Gauge("controller.replacement_seconds").Set(0.01)
	reg.Counter("controller.tasks_moved").Inc(2)
	reg.Gauge("rescale downtime:" + op).Set(0.1)
}

// Fusion exercises the operator-fusion and sharded-meter name families the
// engine registers. The engine.fuse.* counters are literal dotted families
// and must stay clean; per-shard concatenations fold to a clean skeleton
// ("meter.cpu.shard.0") and pass without annotation.
func Fusion(reg *metrics.Registry, shard string) {
	reg.Counter("engine.fuse.chains").Inc(1)
	reg.Counter("engine.fuse.tasks").Inc(1)
	reg.Counter("engine.fuse.records").Inc(1)
	reg.Gauge("meter.cpu.shard." + shard).Set(0.5)
	reg.Gauge("meter.io.shard." + shard).Set(0.5)
}
