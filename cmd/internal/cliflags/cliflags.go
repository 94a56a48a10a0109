// Package cliflags declares, once, the sixteen flags caplive, capsim and
// capsysctl share, and the small amount of plumbing every binary did by hand
// around them: parsing -fuse and -rescale, building the cluster, wiring
// -trace-out / -metrics-addr onto a telemetry hub, and printing how a live
// run ended. Each binary passes its
// own defaults and, where its wording differs, its own help text, so names,
// defaults and -h output stay per-binary.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"capsys/internal/cluster"
	"capsys/internal/dataflow"
	"capsys/internal/engine"
	"capsys/internal/telemetry"
)

// Common holds the shared flags: the binary's defaults before Register, the
// parsed values after flag parsing.
type Common struct {
	Workers, Slots       int
	Cores, IOBps, NetBps float64
	Seed                 int64
	Query, Strategy      string
	Records              int64
	Transport            string
	BatchSize            int
	BatchLinger          time.Duration
	Fuse, Rescale        string
	RescaleEpoch         int64
	TraceOut             string
}

// usage is the help text at least two binaries agree on (or, failing that,
// caplive's); Register's overrides replace it per flag name.
var usage = map[string]string{
	"workers":       "number of workers",
	"slots":         "slots per worker",
	"cores":         "CPU cores per worker",
	"io-bps":        "disk bandwidth per worker (bytes/s)",
	"net-bps":       "network bandwidth per worker (bytes/s)",
	"seed":          "seed for randomized strategies",
	"query":         "built-in query name",
	"strategy":      "placement strategy: caps|default|evenly|random|greedy",
	"records":       "records per source task",
	"rescale-epoch": "checkpoint epoch at which -rescale fires",
	"trace-out":     "append structured trace events as JSONL to this file",
}

// Register declares the shared flags on fs with c's current fields as
// defaults. overrides maps a flag name to this binary's help text; flags
// with no shared wording (transport, batch-size, batch-linger, fuse,
// rescale) must be given one.
func (c *Common) Register(fs *flag.FlagSet, overrides map[string]string) {
	help := func(name string) string {
		if s, ok := overrides[name]; ok {
			return s
		}
		s, ok := usage[name]
		if !ok {
			panic("cliflags: no help text for -" + name)
		}
		return s
	}
	fs.IntVar(&c.Workers, "workers", c.Workers, help("workers"))
	fs.IntVar(&c.Slots, "slots", c.Slots, help("slots"))
	fs.Float64Var(&c.Cores, "cores", c.Cores, help("cores"))
	fs.Float64Var(&c.IOBps, "io-bps", c.IOBps, help("io-bps"))
	fs.Float64Var(&c.NetBps, "net-bps", c.NetBps, help("net-bps"))
	fs.Int64Var(&c.Seed, "seed", c.Seed, help("seed"))
	fs.StringVar(&c.Query, "query", c.Query, help("query"))
	fs.StringVar(&c.Strategy, "strategy", c.Strategy, help("strategy"))
	fs.Int64Var(&c.Records, "records", c.Records, help("records"))
	fs.StringVar(&c.Transport, "transport", c.Transport, help("transport"))
	fs.IntVar(&c.BatchSize, "batch-size", c.BatchSize, help("batch-size"))
	fs.DurationVar(&c.BatchLinger, "batch-linger", c.BatchLinger, help("batch-linger"))
	fs.StringVar(&c.Fuse, "fuse", c.Fuse, help("fuse"))
	fs.StringVar(&c.Rescale, "rescale", c.Rescale, help("rescale"))
	fs.Int64Var(&c.RescaleEpoch, "rescale-epoch", c.RescaleEpoch, help("rescale-epoch"))
	fs.StringVar(&c.TraceOut, "trace-out", c.TraceOut, help("trace-out"))
}

// Cluster builds the homogeneous cluster the worker flags describe.
func (c *Common) Cluster() (*cluster.Cluster, error) {
	return cluster.Homogeneous(c.Workers, c.Slots, c.Cores, c.IOBps, c.NetBps)
}

// DisableFusion maps -fuse on|off onto the engine's DisableFusion option
// (true = fusion off).
func (c *Common) DisableFusion() (bool, error) {
	switch c.Fuse {
	case "on", "":
		return false, nil
	case "off":
		return true, nil
	}
	return false, fmt.Errorf("-fuse must be on or off (got %q)", c.Fuse)
}

// Rescales parses the -rescale "op=parallelism[,op=parallelism]" spec into
// the engine's rescale schedule, all firing at -rescale-epoch: one change of
// several operators, applied in one drain.
func (c *Common) Rescales() ([]engine.RescalePlan, error) {
	if c.Rescale == "" {
		return nil, nil
	}
	var plans []engine.RescalePlan
	for _, kv := range strings.Split(c.Rescale, ",") {
		op, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok || op == "" {
			return nil, fmt.Errorf("-rescale entry %q: want op=parallelism", kv)
		}
		p, err := strconv.Atoi(v)
		if err != nil || p <= 0 {
			return nil, fmt.Errorf("-rescale entry %q: parallelism must be a positive integer", kv)
		}
		plans = append(plans, engine.RescalePlan{Op: dataflow.OperatorID(op), Parallelism: p, AtEpoch: c.RescaleEpoch})
	}
	return plans, nil
}

// EngineOptions fills the engine job options the shared flags determine.
func (c *Common) EngineOptions() (engine.JobOptions, error) {
	noFuse, err := c.DisableFusion()
	if err != nil {
		return engine.JobOptions{}, err
	}
	rescales, err := c.Rescales()
	if err != nil {
		return engine.JobOptions{}, err
	}
	return engine.JobOptions{
		RecordsPerSource: c.Records,
		Transport:        c.Transport,
		BatchSize:        c.BatchSize,
		BatchLinger:      c.BatchLinger,
		DisableFusion:    noFuse,
		Rescales:         rescales,
	}, nil
}

// ResultLines renders how a live run ended: "<status> in <elapsed>: ..." and,
// when any was applied, the RescaleLine.
func ResultLines(status string, res *engine.JobResult) string {
	return fmt.Sprintf("%s in %v: %d source records (%.0f rec/s), %d sink records\n%s",
		status, res.Elapsed.Round(time.Millisecond), res.SourceRecords,
		float64(res.SourceRecords)/res.Elapsed.Seconds(), res.SinkRecords, RescaleLine(res))
}

// RescaleLine reports what the run's live rescales cost ("" when none ran).
func RescaleLine(res *engine.JobResult) string {
	if res.Rescales == 0 {
		return ""
	}
	return fmt.Sprintf("rescale: %d applied, downtime %v, moved %d state bytes, reprocessed %d records\n",
		res.Rescales, res.RescaleDowntime.Round(time.Millisecond), res.RescaleMovedBytes, res.RecordsReprocessed)
}

// Observe wires a hub to the outside: trace events append to traceOut as
// JSONL and the hub's /metrics and /events are served on metricsAddr, each
// only when non-empty. The bound address is announced on log. stop releases
// both; call it after the run, then check the tracer's SinkErr.
func Observe(tel *telemetry.Telemetry, traceOut, metricsAddr string, log io.Writer) (stop func(), err error) {
	var closers []io.Closer
	stop = func() {
		for _, c := range closers {
			c.Close()
		}
	}
	if traceOut != "" {
		f, err := os.OpenFile(traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("open -trace-out: %w", err)
		}
		closers = append(closers, f)
		tel.Tracer().SetSink(f)
	}
	if metricsAddr != "" {
		srv, bound, err := tel.Serve(metricsAddr)
		if err != nil {
			stop()
			return nil, err
		}
		closers = append(closers, srv)
		fmt.Fprintf(log, "telemetry: serving http://%s/metrics and /events\n", bound)
	}
	return stop, nil
}
