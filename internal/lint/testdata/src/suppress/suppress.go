// Package caps is a capslint fixture exercising the suppression comments:
// valid allows (same line and line above), an allow with no reason, an
// allow naming an unknown check, an allow naming nothing, a stale allow that
// suppresses no finding, and one naming a check that never applies here.
package caps

import "time"

// SuppressedInline is annotated on the flagged line and must not be
// reported.
func SuppressedInline() time.Time {
	return time.Now() //capslint:allow determinism fixture exercises same-line suppression
}

// SuppressedAbove is annotated on the line above and must not be reported.
func SuppressedAbove() time.Time {
	//capslint:allow determinism fixture exercises line-above suppression
	return time.Now()
}

// MissingReason gives no reason: the allow itself is a finding and the
// wall-clock read stays reported.
func MissingReason() time.Time {
	return time.Now() //capslint:allow determinism
}

// UnknownCheck names a check that does not exist.
func UnknownCheck() int {
	//capslint:allow nosuchcheck misspelled check name
	return 0
}

// NamesNothing has an allow with no check at all.
func NamesNothing() int {
	//capslint:allow
	return 0
}

// Stale suppresses nothing.
func Stale() int {
	//capslint:allow determinism nothing on this or the next line to suppress
	return 42
}

// NeverApplies names chans, which only runs on package engine: the allow
// can never suppress anything in this package, so it is stale.
func NeverApplies(out chan int) {
	//capslint:allow chans not a check of this package
	out <- 1
}
