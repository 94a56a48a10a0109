// Package caps is a capslint fixture exercising the determinism analyzer:
// the package clause opts this directory into the deterministic set. The
// golden test pins every finding (and non-finding) below by file:line.
package caps

import (
	"errors"
	"math/rand"
	"sort"
	"time"
)

// WallClock reads the wall clock twice and draws from the global source.
func WallClock() time.Duration {
	start := time.Now()
	_ = rand.Intn(10)
	return time.Since(start)
}

// SumInOrder observes map iteration order: float accumulation is not
// associative and the gathered key order leaks into the result.
func SumInOrder(m map[string]float64) (float64, []string) {
	total := 0.0
	var order []string
	for k, v := range m {
		total += v
		order = append(order, k)
	}
	return total, order
}

// GatherSorted is the gather-then-sort idiom and must not be flagged.
func GatherSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Rebuild writes through the (injective) range key and must not be flagged.
func Rebuild(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v * 2
	}
	return out
}

// Seeded uses an explicitly seeded source and must not be flagged.
func Seeded(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}

// CountOnly ranges a map without observing order and must not be flagged.
func CountOnly(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// TaskID names one parallel instance of an operator.
type TaskID struct {
	Op    string
	Index int
}

// MetricsFromObservation is ds2's (ds2.go) with its sorted task order
// dropped: each operator's rates are appended in map order, so every float
// sum DS2 takes over them can differ in its last bits from run to run. The
// ds2, controller, experiments and engine tests compare such sums with
// tolerances and all pass with it; determinism is what catches it.
func MetricsFromObservation(obs map[TaskID]float64) (map[string][]float64, error) {
	m := make(map[string][]float64)
	for t, r := range obs {
		if t.Op == "" {
			return nil, errors.New("observation for no operator")
		}
		m[t.Op] = append(m[t.Op], r)
	}
	return m, nil
}
