// Package check carries the invariant-violation machinery behind the
// simulator's Validate mode: a structured Violation naming the VP, the
// event, and the virtual time at which an engine or MPI invariant broke,
// raised as a panic so the run stops at the first violation with a
// diagnostic dump instead of silently diverging.
//
// The checks themselves live next to the state they guard (internal/core,
// internal/mpi) and are compiled in behind a per-run flag; this package
// only defines how a violation is reported and recognised.
package check

import (
	"fmt"
	"strings"

	"xsim/internal/vclock"
)

// Violation describes one broken invariant. It is raised as a panic; the
// engine recovers it wherever it is raised during a run and returns the
// earliest one as the run's error, whose text is the dump below.
type Violation struct {
	// Invariant is the short stable name of the broken invariant, e.g.
	// "window-horizon" or "posted-index".
	Invariant string
	// Rank is the VP the violation concerns, or a negative value when the
	// violation is not attributable to a single VP.
	Rank int
	// Time is the virtual time at which the violation was observed.
	Time vclock.Time
	// Event describes the event or work item involved, empty when none.
	Event string
	// Detail states what was expected and what was found.
	Detail string
}

// Error renders the diagnostic dump.
func (v *Violation) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "invariant violation [%s]", v.Invariant)
	if v.Rank >= 0 {
		fmt.Fprintf(&sb, " rank %d", v.Rank)
	}
	fmt.Fprintf(&sb, " at virtual time %v", v.Time)
	if v.Event != "" {
		fmt.Fprintf(&sb, "\n  event: %s", v.Event)
	}
	fmt.Fprintf(&sb, "\n  %s", v.Detail)
	return sb.String()
}

// Failf raises a Violation by panicking with it. rank may be negative for
// violations not attributable to a single VP; event may be empty.
func Failf(invariant string, rank int, at vclock.Time, event, format string, args ...any) {
	panic(&Violation{
		Invariant: invariant,
		Rank:      rank,
		Time:      at,
		Event:     event,
		Detail:    fmt.Sprintf(format, args...),
	})
}

// AsViolation extracts a *Violation from a recover() value.
func AsViolation(r any) (*Violation, bool) {
	v, ok := r.(*Violation)
	return v, ok
}
