// Package caps is a capslint fixture exercising overlapping findings: one
// line that trips two different checks, with an allow naming only one of
// them. Suppression is per-check, so the other finding must survive.
package caps

import (
	"sync/atomic"
	"time"
)

// TwoFindingsOneLine reads the wall clock (determinism) inside a call to a
// sync/atomic function (atomics) on the same line. The allow above names
// only determinism: the atomics finding stays.
func TwoFindingsOneLine(n *int64) {
	//capslint:allow determinism fixture exercises per-check same-line scoping
	atomic.AddInt64(n, time.Now().UnixNano())
}
