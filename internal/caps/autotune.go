package caps

import (
	"context"
	"fmt"
	"math"
	"time"

	"capsys/internal/clock"
	"capsys/internal/cluster"
	"capsys/internal/costmodel"
	"capsys/internal/dataflow"
)

// AutoTuneOptions configures the threshold auto-tuning procedure (§5.2).
type AutoTuneOptions struct {
	// RelaxPhase1 is the multiplicative relaxation step used while probing
	// each dimension in isolation. The paper uses 1.1.
	RelaxPhase1 float64
	// RelaxPhase2 is the multiplicative relaxation step used while jointly
	// relaxing the combined threshold vector. The paper uses 1.1.
	RelaxPhase2 float64
	// InitialAlpha is the tightest bound probed first. It must be positive
	// because relaxation is multiplicative.
	InitialAlpha float64
	// Timeout bounds the total auto-tuning time; on expiry the most relaxed
	// vector probed so far is returned along with ErrAutoTuneTimeout.
	Timeout time.Duration
	// ProbeMaxNodes bounds each feasibility probe's search-tree size. A
	// probe that exhausts its budget without discovering a plan is treated
	// as infeasible and the threshold relaxes; this trades minimality of
	// the tuned vector for bounded tuning time on large deployments
	// (0 = default 200k nodes).
	ProbeMaxNodes int64
	// SearchParallelism is forwarded to the feasibility probes.
	SearchParallelism int
	// Reorder is forwarded to the feasibility probes.
	Reorder bool
	// Now is the time source for Elapsed and the probes (nil = system
	// clock); the tuned vector itself never depends on it.
	Now clock.Clock
}

// DefaultAutoTuneOptions mirrors the paper's experimental configuration
// (relaxation factor 1.1 for both phases) with a generous default timeout:
// auto-tuning runs offline, and large multi-tenant graphs legitimately need
// tens of seconds of probing. The paper's 5s timeout was the setting of its
// runtime measurement (Fig. 10b), not a correctness bound; callers measuring
// tuning latency should set Timeout explicitly.
func DefaultAutoTuneOptions() AutoTuneOptions {
	return AutoTuneOptions{
		RelaxPhase1:  1.1,
		RelaxPhase2:  1.1,
		InitialAlpha: 0.001,
		Timeout:      60 * time.Second,
		Reorder:      true,
	}
}

// ErrAutoTuneTimeout is returned when auto-tuning exceeds its timeout before
// establishing a jointly feasible threshold vector.
var ErrAutoTuneTimeout = fmt.Errorf("caps: auto-tuning timed out")

// AutoTuneResult reports the tuned thresholds and the effort spent.
type AutoTuneResult struct {
	// Alpha is the minimum jointly feasible threshold vector found.
	Alpha costmodel.Vector
	// PerDimension is the phase-1 outcome: the minimum feasible threshold
	// for each dimension with the other two dimensions unbounded.
	PerDimension costmodel.Vector
	// Probes is the number of schedule steps probed for feasibility.
	Probes int
	// Searches is the number of probes that ran a search; the others were
	// known to repeat the previous infeasible probe's tree (see AutoTune).
	Searches int
	// Elapsed is the total auto-tuning duration.
	Elapsed time.Duration
}

// AutoTune finds the minimum feasible threshold vector for deploying p on c
// with task usage u, using the two-phase procedure of paper §5.2:
//
//  1. For each dimension independently (others unbounded), start from the
//     tightest bound and geometrically relax until a feasible plan exists.
//  2. Starting from the per-dimension minima, jointly relax the whole vector
//     until a plan satisfying all three thresholds simultaneously exists.
//
// Two refinements keep the procedure robust where the raw formulation
// degenerates:
//
//   - Capacity floor: a threshold tighter than the worker's actual capacity
//     budget buys no performance (loads below capacity never contend), so
//     each dimension's probe starts at the alpha whose load budget equals
//     the worker capacity. This matters most for the network dimension,
//     where L_net^min = 0 (the paper's approximation) would otherwise let
//     phase 1 return a near-zero threshold that only fully co-located plans
//     satisfy — the paper's own empirically chosen alpha_net values
//     (0.6-0.9, Fig. 10a) reflect the same capacity slack.
//   - Additive relaxation kicker: joint relaxation grows each dimension by
//     at least +0.01 per step, so a near-zero phase-1 minimum cannot stall
//     the multiplicative schedule.
//
// Worker loads are sums of a few discrete per-task usages, so most relaxation
// steps move the budget across none of them. An infeasible probe reports,
// per dimension, the smallest load it rejected or the smallest budget under
// which a layer its capacity lookahead refused could fit (Stats.RejectFloor);
// while the relaxing budget stays below that floor, a probe would make the
// same comparisons, walk the same tree, hit the same ProbeMaxNodes cap and
// return the same verdict, so the step is counted in Probes without
// searching.
func AutoTune(ctx context.Context, p *dataflow.PhysicalGraph, c *cluster.Cluster, u *costmodel.Usage, opts AutoTuneOptions) (*AutoTuneResult, error) {
	if opts.RelaxPhase1 <= 1 || opts.RelaxPhase2 <= 1 {
		return nil, fmt.Errorf("caps: relaxation factors must exceed 1 (got %v, %v)", opts.RelaxPhase1, opts.RelaxPhase2)
	}
	if opts.InitialAlpha <= 0 {
		return nil, fmt.Errorf("caps: initial alpha must be positive (got %v)", opts.InitialAlpha)
	}
	if opts.ProbeMaxNodes <= 0 {
		opts.ProbeMaxNodes = 200_000
	}
	now := opts.Now.OrSystem()
	start := now()
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	res := &AutoTuneResult{}

	// Capacity floors: the alpha at which the pruning budget equals the
	// (minimum) worker capacity in each dimension.
	slots, err := c.SlotsPerWorker()
	if err != nil {
		return nil, err
	}
	bounds := costmodel.ComputeBounds(p, u, c.NumWorkers(), slots)
	minCap := costmodel.Vector{CPU: math.Inf(1), IO: math.Inf(1), Net: math.Inf(1)}
	for i := 0; i < c.NumWorkers(); i++ {
		w := c.Worker(i)
		minCap = costmodel.Vector{
			CPU: math.Min(minCap.CPU, w.CPU),
			IO:  math.Min(minCap.IO, w.IOBandwidth),
			Net: math.Min(minCap.Net, w.NetBandwidth),
		}
	}
	floor := func(capacity, lmin, lmax float64) float64 {
		span := lmax - lmin
		if span <= 1e-12 {
			return opts.InitialAlpha
		}
		f := (capacity - lmin) / span
		if f < opts.InitialAlpha {
			return opts.InitialAlpha
		}
		if f > 1 {
			return 1
		}
		return f
	}
	// Only the network dimension gets the capacity floor: its L^min = 0
	// approximation is what makes the raw phase-1 minimum degenerate (any
	// fully co-located plan achieves zero network cost). CPU and state
	// access keep the paper's tightest-bound start — their balanced minima
	// are meaningful, and capacity-based floors would be too loose because
	// co-location penalties shrink effective capacity below nominal.
	floors := costmodel.Vector{
		CPU: opts.InitialAlpha,
		IO:  opts.InitialAlpha,
		Net: floor(minCap.Net, bounds.Min.Net, bounds.Max.Net),
	}

	// reject is the reject floor of the last probe searched, if it was
	// infeasible. Both relaxation loops below only loosen the budget until
	// the first feasible probe, which clears it.
	reject, repeatable := Unbounded, false
	below := func(limit, floor float64) bool { return limit < floor || math.IsInf(floor, 1) }
	feasible := func(alpha costmodel.Vector) (bool, error) {
		res.Probes++
		if repeatable {
			l := budgetLimit(bounds, alpha)
			if below(l.CPU, reject.CPU) && below(l.IO, reject.IO) && below(l.Net, reject.Net) {
				return false, nil
			}
		}
		res.Searches++
		r, err := Search(ctx, p, c, u, Options{
			Alpha:       alpha,
			Mode:        FirstFeasible,
			Reorder:     opts.Reorder,
			Parallelism: opts.SearchParallelism,
			MaxNodes:    opts.ProbeMaxNodes,
			Now:         opts.Now,
		})
		if err != nil {
			return false, err
		}
		reject, repeatable = r.Stats.RejectFloor, !r.Feasible
		return r.Feasible, nil
	}

	// Phase 1: minimum feasible threshold per dimension, others disabled.
	dims := []struct {
		name  string
		start float64
		set   func(v *costmodel.Vector, a float64)
	}{
		{"cpu", floors.CPU, func(v *costmodel.Vector, a float64) { v.CPU = a }},
		{"io", floors.IO, func(v *costmodel.Vector, a float64) { v.IO = a }},
		{"net", floors.Net, func(v *costmodel.Vector, a float64) { v.Net = a }},
	}
	for i, d := range dims {
		a := d.start
		for {
			probe := Unbounded
			d.set(&probe, a)
			ok, err := feasible(probe)
			if err != nil {
				return nil, err
			}
			if ok {
				d.set(&res.PerDimension, a)
				break
			}
			// Cost is bounded by 1, so alpha = 1 is always feasible for a
			// single dimension; an infeasible probe there was cut short by
			// the context.
			if a >= 1 || ctx.Err() != nil {
				// Most relaxed vector probed so far: the minima found, the
				// step just probed, and no bound on dimensions not reached.
				res.Alpha = res.PerDimension
				d.set(&res.Alpha, a)
				for _, rest := range dims[i+1:] {
					rest.set(&res.Alpha, 1)
				}
				res.Elapsed = now.Since(start)
				return res, ErrAutoTuneTimeout
			}
			a = math.Min(1, a*opts.RelaxPhase1)
		}
	}

	// Phase 2: jointly relax from the per-dimension minima until the whole
	// vector is feasible at once.
	alpha := res.PerDimension
	for {
		if ctx.Err() != nil {
			res.Alpha = alpha
			res.Elapsed = now.Since(start)
			return res, ErrAutoTuneTimeout
		}
		ok, err := feasible(alpha)
		if err != nil {
			return nil, err
		}
		if ok {
			res.Alpha = alpha
			res.Elapsed = now.Since(start)
			return res, nil
		}
		if alpha.CPU >= 1 && alpha.IO >= 1 && alpha.Net >= 1 {
			// Alpha = 1 everywhere admits every canonical plan; if even that
			// probe failed, the context expired mid-search.
			res.Alpha = alpha
			res.Elapsed = now.Since(start)
			return res, ErrAutoTuneTimeout
		}
		// Multiplicative relaxation with an additive kicker: near-zero
		// phase-1 minima must still make progress.
		relax := func(a float64) float64 {
			return math.Min(1, math.Max(a*opts.RelaxPhase2, a+0.01))
		}
		alpha = costmodel.Vector{
			CPU: relax(alpha.CPU),
			IO:  relax(alpha.IO),
			Net: relax(alpha.Net),
		}
	}
}
