package caps

import (
	"context"
	"testing"
	"time"

	"capsys/internal/costmodel"
)

func TestAutoTuneFindsFeasibleVector(t *testing.T) {
	p, c, u := paperExample(t)
	res, err := AutoTune(context.Background(), p, c, u, DefaultAutoTuneOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Probes == 0 {
		t.Error("no probes recorded")
	}
	// The result must actually be feasible.
	sr, err := Search(context.Background(), p, c, u, Options{Alpha: res.Alpha, Mode: FirstFeasible})
	if err != nil {
		t.Fatal(err)
	}
	if !sr.Feasible {
		t.Errorf("auto-tuned alpha %v is not feasible", res.Alpha)
	}
	// Phase-1 minima are individually feasible and no larger than the joint
	// vector (phase 2 only relaxes).
	if res.PerDimension.CPU > res.Alpha.CPU+1e-12 ||
		res.PerDimension.IO > res.Alpha.IO+1e-12 ||
		res.PerDimension.Net > res.Alpha.Net+1e-12 {
		t.Errorf("joint alpha %v tighter than per-dimension minima %v", res.Alpha, res.PerDimension)
	}
	for _, probe := range []costmodel.Vector{
		{CPU: res.PerDimension.CPU, IO: Unbounded.IO, Net: Unbounded.Net},
		{CPU: Unbounded.CPU, IO: res.PerDimension.IO, Net: Unbounded.Net},
		{CPU: Unbounded.CPU, IO: Unbounded.IO, Net: res.PerDimension.Net},
	} {
		r, err := Search(context.Background(), p, c, u, Options{Alpha: probe, Mode: FirstFeasible})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Feasible {
			t.Errorf("per-dimension alpha %v not feasible", probe)
		}
	}
}

// The tuned alpha should be near-minimal: tightening the vector by more than
// one relaxation step in every dimension must be infeasible.
func TestAutoTuneMinimality(t *testing.T) {
	p, c, u := paperExample(t)
	opts := DefaultAutoTuneOptions()
	res, err := AutoTune(context.Background(), p, c, u, opts)
	if err != nil {
		t.Fatal(err)
	}
	tighter := costmodel.Vector{
		CPU: res.Alpha.CPU / (opts.RelaxPhase2 * opts.RelaxPhase2),
		IO:  res.Alpha.IO / (opts.RelaxPhase2 * opts.RelaxPhase2),
		Net: res.Alpha.Net / (opts.RelaxPhase2 * opts.RelaxPhase2),
	}
	r, err := Search(context.Background(), p, c, u, Options{Alpha: tighter, Mode: FirstFeasible})
	if err != nil {
		t.Fatal(err)
	}
	if r.Feasible && res.Alpha != res.PerDimension {
		// Only meaningful when phase 2 actually relaxed; if the phase-1
		// vector was already jointly feasible, tighter vectors can be
		// feasible too (phase 1 stops at per-dimension minima, which need
		// not be jointly tight).
		t.Errorf("alpha two steps tighter than tuned %v is still feasible", res.Alpha)
	}
}

func TestAutoTuneOptionValidation(t *testing.T) {
	p, c, u := paperExample(t)
	bad := DefaultAutoTuneOptions()
	bad.RelaxPhase1 = 1.0
	if _, err := AutoTune(context.Background(), p, c, u, bad); err == nil {
		t.Error("relax factor 1.0 accepted")
	}
	bad = DefaultAutoTuneOptions()
	bad.InitialAlpha = 0
	if _, err := AutoTune(context.Background(), p, c, u, bad); err == nil {
		t.Error("zero initial alpha accepted")
	}
}

func TestAutoTuneTimeout(t *testing.T) {
	p, c, u := paperExample(t)
	opts := DefaultAutoTuneOptions()
	opts.Timeout = time.Nanosecond
	res, err := AutoTune(context.Background(), p, c, u, opts)
	if err != ErrAutoTuneTimeout {
		t.Fatalf("err = %v, want ErrAutoTuneTimeout", err)
	}
	// The fallback vector is the most relaxed one probed — the step in
	// progress, 1 for dimensions not reached — never the tightest possible.
	if res.Alpha.CPU == 0 || res.Alpha.IO == 0 || res.Alpha.Net == 0 {
		t.Errorf("alpha on timeout %v has a zero component", res.Alpha)
	}
	if res.Alpha.Net != 1 {
		t.Errorf("alpha on timeout %v bounds the network dimension, which a 1ns budget never reaches", res.Alpha)
	}
}
