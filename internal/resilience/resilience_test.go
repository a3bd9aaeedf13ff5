package resilience

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/automaton"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/pattern"
)

func testSchema() *event.Schema {
	return event.MustSchema(
		event.Field{Name: "ID", Type: event.TypeInt},
		event.Field{Name: "L", Type: event.TypeString},
		event.Field{Name: "V", Type: event.TypeFloat},
	)
}

// testAutomaton compiles ⟨{x},{y}⟩ with x.L='A', y.L='B'.
func testAutomaton(t *testing.T, within event.Duration) *automaton.Automaton {
	t.Helper()
	p := pattern.New().
		Set(pattern.Var("x")).
		Set(pattern.Var("y")).
		WhereConst("x", "L", pattern.Eq, event.String("A")).
		WhereConst("y", "L", pattern.Eq, event.String("B")).
		Within(within).MustBuild()
	a, err := automaton.Compile(p, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// tortureRelation: n events at consecutive ticks cycling A, B, C — a
// steady mix of starts, completions and noise.
func tortureRelation(t *testing.T, n int) *event.Relation {
	t.Helper()
	r := event.NewRelation(testSchema())
	labels := []string{"A", "B", "C"}
	for i := 0; i < n; i++ {
		r.MustAppend(event.Time(i), event.Int(1), event.String(labels[i%3]), event.Float(0))
	}
	return r
}

func feed(rel *event.Relation) <-chan event.Event {
	ch := make(chan event.Event)
	go func() {
		defer close(ch)
		for i := 0; i < rel.Len(); i++ {
			ch <- *rel.Event(i)
		}
	}()
	return ch
}

// supervise is SuperviseEvents for a run whose checkpoint, if any,
// is readable.
func supervise(t testing.TB, ctx context.Context, a *automaton.Automaton, opts []engine.Option,
	in <-chan event.Event, cfg Config) (<-chan engine.Match, *Supervisor) {
	t.Helper()
	out, s, err := SuperviseEvents(ctx, a, opts, in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out, s
}

// sendBlocks sends blocks on a fresh channel and closes it.
func sendBlocks(blocks []event.Block) <-chan event.Block {
	in := make(chan event.Block)
	go func() {
		defer close(in)
		for _, b := range blocks {
			in <- b
		}
	}()
	return in
}

// oneEventBlocks sends each of evs as a one-event block, keeping its
// Seq, and closes the channel.
func oneEventBlocks(evs []event.Event) <-chan event.Block {
	blocks := make([]event.Block, len(evs))
	for i := range evs {
		blocks[i] = event.Block{Events: evs[i : i+1]}
	}
	return sendBlocks(blocks)
}

func collect(out <-chan engine.Match) []string {
	var got []string
	for m := range out {
		got = append(got, m.String())
	}
	return got
}

func collectBlocks(out <-chan []engine.Match) []string {
	var got []string
	for ms := range out {
		for _, m := range ms {
			got = append(got, m.String())
		}
	}
	return got
}

// TestTortureChaosWithinSlack is the headline robustness guarantee:
// a supervised, checkpointing run fed through a ChaosSource that
// duplicates events, reorders within the slack, and injects panics
// must emit EXACTLY the match set of a clean single-pass run.
func TestTortureChaosWithinSlack(t *testing.T) {
	a := testAutomaton(t, 10)
	rel := tortureRelation(t, 200)

	want, _, err := engine.Run(a, rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("setup: clean run found no matches; torture proves nothing")
	}
	wantStrs := make([]string, len(want))
	for i, m := range want {
		wantStrs[i] = m.String()
	}

	chaos := NewChaosSource(feed(rel), ChaosConfig{
		Seed:          42,
		DupProb:       0.3,
		ReorderWindow: 4,
		PanicAfter:    []int64{50, 120},
	})
	ckpt := filepath.Join(t.TempDir(), "torture.ckpt")
	// Each event keeps its relation Seq, its source offset, through
	// duplication and reordering, as a WAL's would.
	in := make(chan event.Block)
	go func() {
		defer close(in)
		for e := range chaos.Events() {
			in <- event.Block{Events: []event.Event{e}}
		}
	}()
	out, s := Supervise(context.Background(), a, nil, in, Config{
		Slack:           16,
		DedupWindow:     32,
		CheckpointEvery: 16,
		CheckpointPath:  ckpt,
		MaxRestarts:     10,
		faultHook:       chaos.FaultHook,
	})
	got := collectBlocks(out)

	if err := s.Err(); err != nil {
		t.Fatalf("supervised run failed: %v", err)
	}
	if s.Restarts() < 1 {
		t.Errorf("Restarts = %d, want >= 1: no panic ever struck", s.Restarts())
	}
	if stats := chaos.Stats(); stats.Panics < 1 || stats.Duplicated < 1 {
		t.Errorf("chaos injected too little: %+v", stats)
	}
	if s.DuplicatesDropped() < 1 {
		t.Errorf("DuplicatesDropped = 0, want the injected duplicates removed")
	}
	if s.Checkpoints() < 1 {
		t.Errorf("Checkpoints = 0, want periodic checkpointing")
	}
	sort.Strings(wantStrs)
	gotSorted := append([]string{}, got...)
	sort.Strings(gotSorted)
	if strings.Join(gotSorted, "\n") != strings.Join(wantStrs, "\n") {
		t.Errorf("tortured run diverges from clean run:\nclean (%d): %v\ntortured (%d): %v",
			len(wantStrs), wantStrs, len(got), got)
	}
	// Faults within slack must be fully masked: nothing dead-lettered.
	if s.DeadLetters() != 0 {
		t.Errorf("DeadLetters = %d, want 0: in-slack chaos must be absorbed", s.DeadLetters())
	}
}

// TestTortureDegradedReportsShedding: a supervised run under an
// instance cap with the DropOldest policy finishes without error and
// accounts for exactly what it shed.
func TestTortureDegradedReportsShedding(t *testing.T) {
	a := testAutomaton(t, 100000)
	rel := event.NewRelation(testSchema())
	for i := 0; i < 50; i++ {
		rel.MustAppend(event.Time(i), event.Int(1), event.String("A"), event.Float(0))
	}
	rel.MustAppend(100, event.Int(1), event.String("B"), event.Float(0))

	opts := []engine.Option{engine.WithMaxInstances(10), engine.WithOverloadPolicy(engine.DropOldest)}
	out, s := supervise(t, context.Background(), a, opts, feed(rel), Config{})
	got := collect(out)

	if err := s.Err(); err != nil {
		t.Fatalf("degraded run must not fail: %v", err)
	}
	m := s.Metrics()
	if m.InstancesShed != 40 {
		t.Errorf("InstancesShed = %d, want 40 (50 starts, cap 10)", m.InstancesShed)
	}
	if m.DegradedSteps == 0 {
		t.Errorf("DegradedSteps = 0, want degradation recorded")
	}
	if len(got) != 10 {
		t.Errorf("got %d matches, want the 10 surviving instances", len(got))
	}
	// Contrast: the paper-exact Fail policy gives up instead, and the
	// supervisor must surface that as a terminal error (deterministic
	// errors are not retried).
	out2, s2 := supervise(t, context.Background(), a,
		[]engine.Option{engine.WithMaxInstances(10)}, feed(rel), Config{})
	collect(out2)
	if err := s2.Err(); err == nil || !strings.Contains(err.Error(), "exceed the cap") {
		t.Errorf("Fail policy under the supervisor: err = %v, want the cap error", err)
	}
	if s2.Restarts() != 0 {
		t.Errorf("deterministic engine errors must not be retried, got %d restarts", s2.Restarts())
	}
}

// TestSupervisorDeadLetters: beyond-slack and schema-invalid events go
// to the dead-letter callback with the documented reasons instead of
// poisoning the run.
func TestSupervisorDeadLetters(t *testing.T) {
	a := testAutomaton(t, 100)
	in := make(chan event.Event, 4)
	in <- event.Event{Time: 100, Attrs: []event.Value{event.Int(1), event.String("A"), event.Float(0)}}
	in <- event.Event{Time: 0, Attrs: []event.Value{event.Int(1), event.String("B"), event.Float(0)}}   // 100 ticks late, slack 5
	in <- event.Event{Time: 101, Attrs: []event.Value{event.Int(1)}}                                    // schema-invalid
	in <- event.Event{Time: 102, Attrs: []event.Value{event.Int(1), event.String("B"), event.Float(0)}} // fine
	close(in)

	var reasons []error
	out, s := supervise(t, context.Background(), a, nil, in, Config{
		Slack:      5,
		DeadLetter: func(e event.Event, reason error) { reasons = append(reasons, reason) },
	})
	collect(out)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if s.DeadLetters() != 2 {
		t.Fatalf("DeadLetters = %d, want 2", s.DeadLetters())
	}
	if len(reasons) != 2 || !errors.Is(reasons[0], ErrLate) || !errors.Is(reasons[1], ErrSchema) {
		t.Errorf("dead-letter reasons = %v, want [ErrLate ErrSchema]", reasons)
	}
	if m := s.Metrics(); m.EventsProcessed != 2 {
		t.Errorf("EventsProcessed = %d, want the 2 valid events", m.EventsProcessed)
	}
}

// TestSupervisorGivesUp: a fault that keeps recurring exhausts
// MaxRestarts and surfaces a terminal error instead of looping forever.
func TestSupervisorGivesUp(t *testing.T) {
	a := testAutomaton(t, 100)
	rel := tortureRelation(t, 20)
	chaos := NewChaosSource(feed(rel), ChaosConfig{
		// Consecutive delivery indices: every replay attempt trips the
		// next one immediately.
		PanicAfter: []int64{3, 4, 5, 6, 7, 8},
	})
	restarts := 0
	out, s := supervise(t, context.Background(), a, nil, chaos.Events(), Config{
		MaxRestarts: 2,
		Backoff:     1, // keep the test fast
		faultHook:   chaos.FaultHook,
		OnRestart:   func(attempt int, cause error) { restarts++ },
	})
	collect(out)
	err := s.Err()
	if err == nil || !strings.Contains(err.Error(), "giving up after 2 restarts") {
		t.Fatalf("err = %v, want giving-up error", err)
	}
	if restarts != 2 {
		t.Errorf("OnRestart fired %d times, want 2", restarts)
	}
	var pe panicError
	if !errors.As(err, &pe) {
		t.Errorf("terminal error should wrap the causing panic, got %T", errors.Unwrap(err))
	}
}

// TestSupervisorResume: a new supervisor with Resume picks up the
// state persisted at CheckpointPath by an earlier run.
func TestSupervisorResume(t *testing.T) {
	a := testAutomaton(t, 10)
	rel := tortureRelation(t, 64)
	ckpt := filepath.Join(t.TempDir(), "resume.ckpt")

	out1, s1 := supervise(t, context.Background(), a, nil, feed(rel), Config{
		CheckpointEvery: 8,
		CheckpointPath:  ckpt,
	})
	collect(out1)
	if err := s1.Err(); err != nil {
		t.Fatal(err)
	}
	if s1.Checkpoints() != 9 {
		t.Fatalf("Checkpoints = %d, want 9 (64 events / 8, and the drain checkpoint)", s1.Checkpoints())
	}

	// The persisted snapshot is the state after the last checkpoint;
	// a resumed supervisor starts from there.
	empty := make(chan event.Event)
	close(empty)
	out2, s2 := supervise(t, context.Background(), a, nil, empty, Config{
		CheckpointPath: ckpt,
		Resume:         true,
	})
	collect(out2)
	if err := s2.Err(); err != nil {
		t.Fatal(err)
	}
	if got := s2.Metrics().EventsProcessed; got != 64 {
		t.Errorf("resumed EventsProcessed = %d, want 64 from the checkpoint", got)
	}

	// A corrupt checkpoint is a loud failure, not silent state loss.
	bad := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := writeFileAtomic(bad, []byte("not a snapshot")); err != nil {
		t.Fatal(err)
	}
	badCfg := Config{CheckpointPath: bad, Resume: true}
	if _, _, err := SuperviseEvents(context.Background(), a, nil, empty, badCfg); err == nil {
		t.Errorf("SuperviseEvents: corrupt checkpoint must fail the resume")
	}
	out3, s3 := Supervise(context.Background(), a, nil, oneEventBlocks(nil), badCfg)
	for range out3 {
	}
	if err := s3.Err(); err == nil {
		t.Errorf("Supervise: corrupt checkpoint must fail the resume")
	}
}

// TestSupervisorCancellation: context cancellation closes the match
// channel and surfaces ctx.Err.
func TestSupervisorCancellation(t *testing.T) {
	a := testAutomaton(t, 100)
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan event.Event) // never closed: only cancellation can end the run
	out, s := supervise(t, ctx, a, nil, in, Config{})
	cancel()
	collect(out) // must return: the channel closes on cancellation
	if err := s.Err(); err != context.Canceled {
		t.Errorf("Err = %v, want context.Canceled", err)
	}
}

// TestChaosSourceDeterminism: same seed, same input, same faults — the
// harness itself must be reproducible or torture failures aren't
// debuggable.
func TestChaosSourceDeterminism(t *testing.T) {
	cfg := ChaosConfig{Seed: 7, DropProb: 0.2, DupProb: 0.2, ReorderWindow: 3, JitterProb: 0.5, MaxJitter: 2}
	render := func() []string {
		rel := tortureRelation(t, 100)
		c := NewChaosSource(feed(rel), cfg)
		var got []string
		for e := range c.Events() {
			got = append(got, e.String())
		}
		return got
	}
	a, b := render(), render()
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Errorf("same seed produced different streams")
	}
}

// TestChaosSourceReorderBound: chunked shuffling displaces an event by
// at most ReorderWindow-1 positions — the bound the slack guarantee in
// TestTortureChaosWithinSlack rests on.
func TestChaosSourceReorderBound(t *testing.T) {
	const window = 5
	rel := tortureRelation(t, 500)
	c := NewChaosSource(feed(rel), ChaosConfig{Seed: 3, ReorderWindow: window})
	pos := 0
	for e := range c.Events() {
		if d := int(e.Time) - pos; d > window-1 || d < -(window-1) {
			t.Fatalf("event with time %d delivered at position %d: displacement %d exceeds window", e.Time, pos, d)
		}
		pos++
	}
	if pos != 500 {
		t.Fatalf("forwarded %d events, want all 500", pos)
	}
}

// TestSupervisorRegistry: with Config.Registry set, the supervisor
// mirrors its counters into the registry (restarts, dead letters,
// checkpoints, duplicates, events) and exposes a checkpoint-age gauge.
func TestSupervisorRegistry(t *testing.T) {
	a := testAutomaton(t, 100)
	rel := tortureRelation(t, 40)
	chaos := NewChaosSource(feed(rel), ChaosConfig{
		Seed:       7,
		PanicAfter: []int64{10},
		DupProb:    0.3,
	})
	reg := obs.NewRegistry()
	out, s := supervise(t, context.Background(), a, nil, chaos.Events(), Config{
		Slack:           5,
		DedupWindow:     5,
		CheckpointEvery: 8,
		Backoff:         1,
		faultHook:       chaos.FaultHook,
		Registry:        reg,
	})
	collect(out)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	counters := map[string]int64{
		"ses_resilience_restarts_total":           s.Restarts(),
		"ses_resilience_dead_letters_total":       s.DeadLetters(),
		"ses_resilience_checkpoints_total":        s.Checkpoints(),
		"ses_resilience_duplicates_dropped_total": s.DuplicatesDropped(),
		"ses_resilience_events_total":             s.Metrics().EventsProcessed,
	}
	for name, want := range counters {
		if got, ok := reg.Value(name); !ok || got != want {
			t.Errorf("%s = %d (present=%v), want %d", name, got, ok, want)
		}
	}
	if s.Restarts() == 0 || s.Checkpoints() == 0 || s.DuplicatesDropped() == 0 {
		t.Errorf("test exercised too little: restarts=%d checkpoints=%d dups=%d",
			s.Restarts(), s.Checkpoints(), s.DuplicatesDropped())
	}
	if age, ok := reg.Value("ses_resilience_checkpoint_age_seconds"); !ok || age < 0 {
		t.Errorf("checkpoint age = %d (present=%v), want >= 0 after a checkpoint", age, ok)
	}
}

// TestSupervisorSentinelDeadLetter: events carrying reserved sentinel
// timestamps are dead-lettered with ErrSentinelTime instead of
// reaching the reorderer.
func TestSupervisorSentinelDeadLetter(t *testing.T) {
	a := testAutomaton(t, 100)
	in := make(chan event.Event, 3)
	in <- event.Event{Time: 1, Attrs: []event.Value{event.Int(1), event.String("A"), event.Float(0)}}
	in <- event.Event{Time: event.MaxTime, Attrs: []event.Value{event.Int(1), event.String("B"), event.Float(0)}}
	in <- event.Event{Time: 2, Attrs: []event.Value{event.Int(1), event.String("B"), event.Float(0)}}
	close(in)
	var reasons []error
	out, s := supervise(t, context.Background(), a, nil, in, Config{
		DeadLetter: func(e event.Event, reason error) { reasons = append(reasons, reason) },
	})
	got := collect(out)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if len(reasons) != 1 || !errors.Is(reasons[0], ErrSentinelTime) {
		t.Fatalf("dead-letter reasons = %v, want [ErrSentinelTime]", reasons)
	}
	if len(got) != 1 {
		t.Errorf("matches = %v, want the one A-B pair from the valid events", got)
	}
}

// TestSupervisorProgress: a Progress channel is closed by the next
// publication of the stream clock, an event's or the end of input's,
// and one taken before the clock moved is never missed.
func TestSupervisorProgress(t *testing.T) {
	a := testAutomaton(t, 10)
	in := make(chan event.Event)
	out, s := supervise(t, context.Background(), a, nil, in, Config{})
	done := make(chan struct{})
	go func() { collect(out); close(done) }()

	wait := func(c <-chan struct{}) {
		t.Helper()
		select {
		case <-c:
		case <-time.After(5 * time.Second):
			t.Fatal("Progress channel not closed")
		}
	}
	p := s.Progress()
	if q := s.Progress(); q != p {
		t.Fatal("two waiters before a publication got different channels")
	}
	in <- event.Event{Time: 7, Attrs: []event.Value{event.Int(1), event.String("A"), event.Float(0)}}
	wait(p)
	if c, ok := s.CompletedThrough(); !ok || c != 7 {
		t.Fatalf("CompletedThrough = %d, %t after the event at 7", c, ok)
	}
	p = s.Progress()
	select {
	case <-p:
		t.Fatal("Progress channel closed before the clock moved again")
	default:
	}
	close(in)
	wait(p)
	<-done
	if c, _ := s.CompletedThrough(); c != math.MaxInt64 {
		t.Fatalf("CompletedThrough = %d at end of input, want math.MaxInt64", c)
	}
}
