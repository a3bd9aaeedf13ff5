package engine

import (
	"fmt"
	"strings"
)

// Metrics collects the execution counters used throughout the paper's
// evaluation (Section 5), most importantly MaxSimultaneousInstances,
// the measured parameter of Experiments 1 and 2 (|Ω| in Algorithm 1).
// Counts of instances saturate at math.MaxInt64 instead of wrapping.
type Metrics struct {
	// EventsProcessed counts the input events seen by Step.
	EventsProcessed int64
	// EventsFiltered counts events skipped by the Section 4.5 filter.
	EventsFiltered int64
	// StartInstances counts the fresh instances added in the start
	// state, one per unfiltered event (Algorithm 1, line 4).
	StartInstances int64
	// InstancesCreated counts the instances produced by firing
	// transitions (Algorithm 2, line 5), including plain moves.
	InstancesCreated int64
	// MaxSimultaneousInstances is the maximum of |Ω| observed after
	// line 4 of Algorithm 1, i.e. surviving instances plus the fresh
	// start instance.
	MaxSimultaneousInstances int64
	// TransitionsAttempted and TransitionsFired count condition
	// evaluations per outgoing transition and the successful ones.
	TransitionsAttempted int64
	TransitionsFired     int64
	// InstanceIterations counts iterations over Ω (the inner loop of
	// Algorithm 1); the Section 4.5 filter reduces exactly this number.
	InstanceIterations int64
	// ExpiredInstances counts instances removed by the τ expiry check.
	ExpiredInstances int64
	// Matches counts the emitted matching substitutions.
	Matches int64
	// InstancesShed counts instances sacrificed by a graceful
	// degradation policy: evictions under DropOldest and suppressed
	// start instances under ShedStartStates.
	InstancesShed int64
	// EventsRejected counts whole input events refused by the RejectNew
	// overload policy while the instance set was at the cap.
	EventsRejected int64
	// DegradedSteps counts the Step calls in which an overload policy
	// intervened (rejected the event, shed a start instance, or evicted
	// instances). Zero means the run never degraded.
	DegradedSteps int64
	// CondTypeMismatches counts transition conditions evaluated over
	// operands of incomparable kinds (schema drift): the predicate
	// fails, but unlike an ordinary data-dependent miss the occurrence
	// is surfaced here and as ses_cond_type_mismatch_total.
	CondTypeMismatches int64
}

// Add accumulates o into m (used by the brute-force baseline to
// aggregate over its automata set). All counters sum, including
// MaxSimultaneousInstances: the brute force algorithm runs its |V1|!
// sequence automata over the same input in lockstep, so the paper's
// measured |Ω| is the sum of the per-automaton peaks. For aggregating
// over INDEPENDENT partitions (each its own evaluation, peaks not
// coincident in any shared timeline) use Merge instead.
func (m *Metrics) Add(o Metrics) { m.add(o, 1) }

// add accumulates k times o into m, saturating at math.MaxInt64.
func (m *Metrics) add(o Metrics, k int64) {
	m.EventsProcessed = satAdd(m.EventsProcessed, k*o.EventsProcessed)
	m.EventsFiltered = satAdd(m.EventsFiltered, k*o.EventsFiltered)
	m.StartInstances = satAdd(m.StartInstances, k*o.StartInstances)
	m.InstancesCreated = satAdd(m.InstancesCreated, k*o.InstancesCreated)
	m.MaxSimultaneousInstances = satAdd(m.MaxSimultaneousInstances, k*o.MaxSimultaneousInstances)
	m.TransitionsAttempted = satAdd(m.TransitionsAttempted, k*o.TransitionsAttempted)
	m.TransitionsFired = satAdd(m.TransitionsFired, k*o.TransitionsFired)
	m.InstanceIterations = satAdd(m.InstanceIterations, k*o.InstanceIterations)
	m.ExpiredInstances = satAdd(m.ExpiredInstances, k*o.ExpiredInstances)
	m.Matches = satAdd(m.Matches, k*o.Matches)
	m.InstancesShed = satAdd(m.InstancesShed, k*o.InstancesShed)
	m.EventsRejected = satAdd(m.EventsRejected, k*o.EventsRejected)
	m.DegradedSteps = satAdd(m.DegradedSteps, k*o.DegradedSteps)
	m.CondTypeMismatches = satAdd(m.CondTypeMismatches, k*o.CondTypeMismatches)
}

// account keeps m, a Merge over independent runs, current while one of
// them moves from reading before to reading after.
func (m *Metrics) account(before, after Metrics) {
	peak := max(m.MaxSimultaneousInstances, after.MaxSimultaneousInstances)
	m.add(before, -1)
	m.add(after, 1)
	m.MaxSimultaneousInstances = peak
}

// Merge accumulates o into m with max semantics for peak counters:
// throughput counters (events, instances created, transitions,
// iterations, matches, degradation interventions) sum, while
// MaxSimultaneousInstances takes the maximum of the two peaks. This is
// the correct aggregation for independent partitions or keys
// evaluated separately (sequentially or concurrently): no single
// evaluator ever held the sum of the partitions' peaks, so summing —
// what Add does for the brute-force automata set that does share one
// timeline — would overstate the observed |Ω|.
func (m *Metrics) Merge(o Metrics) { m.account(Metrics{}, o) }

// String renders the metrics as a compact single-line report.
func (m Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "events=%d filtered=%d maxΩ=%d created=%d fired=%d/%d iter=%d expired=%d matches=%d",
		m.EventsProcessed, m.EventsFiltered, m.MaxSimultaneousInstances,
		m.InstancesCreated, m.TransitionsFired, m.TransitionsAttempted,
		m.InstanceIterations, m.ExpiredInstances, m.Matches)
	if m.InstancesShed > 0 || m.EventsRejected > 0 || m.DegradedSteps > 0 {
		fmt.Fprintf(&b, " shed=%d rejected=%d degraded=%d",
			m.InstancesShed, m.EventsRejected, m.DegradedSteps)
	}
	if m.CondTypeMismatches > 0 {
		fmt.Fprintf(&b, " cond_mismatch=%d", m.CondTypeMismatches)
	}
	return b.String()
}
