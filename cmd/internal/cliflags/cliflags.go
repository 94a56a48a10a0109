// Package cliflags declares, once, the eight cluster and placement flags
// caplive, capsim and capsysctl all read, and builds the cluster they
// describe. Each binary passes its own defaults and, where its wording
// differs, its own help text, so names, defaults and -h output stay
// per-binary. Flags only one binary reads are that binary's own.
package cliflags

import (
	"flag"

	"capsys/internal/cluster"
)

// Common holds the shared flags: the binary's defaults before Register, the
// parsed values after flag parsing.
type Common struct {
	Workers, Slots       int
	Cores, IOBps, NetBps float64
	Seed                 int64
	Query, Strategy      string
}

// usage is the help text at least two binaries agree on; Register's
// overrides replace it per flag name.
var usage = map[string]string{
	"workers":  "number of workers",
	"slots":    "slots per worker",
	"cores":    "CPU cores per worker",
	"io-bps":   "disk bandwidth per worker (bytes/s)",
	"net-bps":  "network bandwidth per worker (bytes/s)",
	"seed":     "seed for randomized strategies",
	"query":    "built-in query name",
	"strategy": "placement strategy: caps|default|evenly|random|greedy",
}

// Register declares the shared flags on fs with c's current fields as
// defaults. overrides maps a flag name to this binary's help text.
func (c *Common) Register(fs *flag.FlagSet, overrides map[string]string) {
	help := func(name string) string {
		if s, ok := overrides[name]; ok {
			return s
		}
		return usage[name]
	}
	fs.IntVar(&c.Workers, "workers", c.Workers, help("workers"))
	fs.IntVar(&c.Slots, "slots", c.Slots, help("slots"))
	fs.Float64Var(&c.Cores, "cores", c.Cores, help("cores"))
	fs.Float64Var(&c.IOBps, "io-bps", c.IOBps, help("io-bps"))
	fs.Float64Var(&c.NetBps, "net-bps", c.NetBps, help("net-bps"))
	fs.Int64Var(&c.Seed, "seed", c.Seed, help("seed"))
	fs.StringVar(&c.Query, "query", c.Query, help("query"))
	fs.StringVar(&c.Strategy, "strategy", c.Strategy, help("strategy"))
}

// Cluster builds the homogeneous cluster the worker flags describe.
func (c *Common) Cluster() (*cluster.Cluster, error) {
	return cluster.Homogeneous(c.Workers, c.Slots, c.Cores, c.IOBps, c.NetBps)
}
