package resilience

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/event"
)

// refusalStream is n events at consecutive ticks with ID = position =
// Seq, labelled A, B or C at random. Before refuseUntil some events are
// refused by admission: schema-invalid (one attribute), sentinel
// timestamped, or late (three ticks before their predecessor). burst
// positions are all 'A', opening instances faster than they expire.
func refusalStream(rng *rand.Rand, n, refuseUntil int, burst [2]int) []event.Event {
	labels := []string{"A", "B", "C"}
	evs := make([]event.Event, n)
	tm := event.Time(100)
	for i := range evs {
		tm++
		l := labels[rng.Intn(len(labels))]
		if i >= burst[0] && i < burst[1] {
			l = "A"
		}
		e := event.Event{Seq: i, Time: tm,
			Attrs: []event.Value{event.Int(int64(i)), event.String(l), event.Float(0)}}
		if i < refuseUntil {
			switch rng.Intn(12) {
			case 0:
				e.Attrs = e.Attrs[:1]
			case 1:
				e.Time = event.MaxTime
			case 2:
				e.Time = tm - 3
			}
		}
		evs[i] = e
	}
	return evs
}

// routeBlocks cuts evs into shared blocks of size bs and selects a
// random subset of each through Idx, the way the server's routing
// index delivers a sub-stream. It returns the blocks and, in order,
// the events they select.
func routeBlocks(rng *rand.Rand, evs []event.Event, bs int) ([]event.Block, []event.Event) {
	var blocks []event.Block
	var selected []event.Event
	for lo := 0; lo < len(evs); lo += bs {
		shared := evs[lo:min(lo+bs, len(evs))]
		var idx []int32
		for i := range shared {
			if rng.Intn(4) != 0 {
				idx = append(idx, int32(i))
				selected = append(selected, shared[i])
			}
		}
		if len(idx) > 0 {
			blocks = append(blocks, event.Block{Events: shared, Idx: idx})
		}
	}
	return blocks, selected
}

// pipelineOutcome is everything a supervised run exposes.
type pipelineOutcome struct {
	matches     []string
	deadLetters []string
	checkpoints int64
	restarts    int64
	watermark   string
	err         string
	metrics     engine.Metrics
}

// canonicalMatch renders m as its MatchJSON line, Seq included: every
// pipeline here keeps the Seq its feeder stamped.
func canonicalMatch(m engine.Match) string {
	out, err := engine.MatchJSON(m, testSchema())
	if err != nil {
		return err.Error()
	}
	return string(out)
}

// runPipeline drives one supervised pipeline to the end of its input
// and collects its outcome; run starts it with the given config.
func runPipeline(t *testing.T, cfg Config, panicAt []int64,
	run func(Config) (<-chan []engine.Match, *Supervisor)) pipelineOutcome {
	t.Helper()
	var o pipelineOutcome
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "q.ckpt")
	cfg.MaxRestarts = 10
	cfg.Backoff = 1
	cfg.DeadLetter = func(e event.Event, reason error) {
		o.deadLetters = append(o.deadLetters, fmt.Sprintf("%v:%v", e.Attrs[0], reason))
	}
	if len(panicAt) > 0 {
		never := make(chan event.Event)
		close(never)
		cfg.faultHook = NewChaosSource(never, ChaosConfig{PanicAfter: panicAt}).FaultHook
	}
	out, s := run(cfg)
	for ms := range out {
		for _, m := range ms {
			o.matches = append(o.matches, canonicalMatch(m))
		}
	}
	if err := s.Err(); err != nil {
		o.err = err.Error()
	}
	o.checkpoints, o.restarts, o.metrics = s.Checkpoints(), s.Restarts(), s.Metrics()
	w, ok, err := CheckpointOffset(cfg.CheckpointPath)
	o.watermark = fmt.Sprint(w, ok, err)
	return o
}

// TestSuperviseBlocksIsSupervise: Supervise stepping routed Idx blocks
// — with schema-invalid, sentinel and late events inside them,
// checkpoint cadences that do not divide the block size, chaos panics
// striking mid-block, and a Fail-policy cap — delivers exactly what it
// delivers over the same events one at a time, as one-event blocks
// carrying the same Seq: the same match bytes, dead letters,
// checkpoints, restarts, on-disk watermark, error and Metrics.
func TestSuperviseBlocksIsSupervise(t *testing.T) {
	a := testAutomaton(t, 12)
	cases := []struct {
		name    string
		cfg     Config
		panicAt []int64
		opts    []engine.Option
		fail    bool
	}{
		{name: "slack0", cfg: Config{CheckpointEvery: 7}},
		{name: "slack0/chaos", cfg: Config{CheckpointEvery: 5}, panicAt: []int64{9, 40, 41, 77, 130}},
		{name: "slack0/ckpt64", cfg: Config{CheckpointEvery: 64}, panicAt: []int64{100}},
		{name: "slack4", cfg: Config{Slack: 4, CheckpointEvery: 7}},
		{name: "slack4/chaos", cfg: Config{Slack: 4, CheckpointEvery: 5}, panicAt: []int64{9, 40, 41, 77, 130}},
		{name: "dedup", cfg: Config{DedupWindow: 3, CheckpointEvery: 9}, panicAt: []int64{60}},
		{name: "fail-cap", cfg: Config{CheckpointEvery: 6}, panicAt: []int64{30},
			opts: []engine.Option{engine.WithMaxInstances(10)}, fail: true},
	}
	for _, tc := range cases {
		for _, bs := range []int{16, 33} {
			t.Run(fmt.Sprintf("%s/block=%d", tc.name, bs), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(bs)))
				refuseUntil, burst := 300, [2]int{0, 0}
				if tc.fail {
					refuseUntil, burst = 150, [2]int{200, 240}
				}
				blocks, selected := routeBlocks(rng, refusalStream(rng, 300, refuseUntil, burst), bs)

				want := runPipeline(t, tc.cfg, tc.panicAt, func(cfg Config) (<-chan []engine.Match, *Supervisor) {
					return Supervise(context.Background(), a, tc.opts, oneEventBlocks(selected), cfg)
				})
				got := runPipeline(t, tc.cfg, tc.panicAt, func(cfg Config) (<-chan []engine.Match, *Supervisor) {
					return Supervise(context.Background(), a, tc.opts, sendBlocks(blocks), cfg)
				})

				if len(want.matches) == 0 || len(want.deadLetters) == 0 || want.checkpoints == 0 {
					t.Fatalf("the case exercises too little: %d matches, %d dead letters, %d checkpoints",
						len(want.matches), len(want.deadLetters), want.checkpoints)
				}
				t.Logf("%d matches, %d dead letters, %d checkpoints, %d restarts, watermark %s",
					len(want.matches), len(want.deadLetters), want.checkpoints, want.restarts, want.watermark)
				if tc.fail != strings.Contains(want.err, "exceed the cap") {
					t.Fatalf("the one-event run ended with %q", want.err)
				}
				if len(tc.panicAt) > 0 && want.restarts == 0 {
					t.Fatal("no injected panic struck")
				}
				if g, w := strings.Join(got.matches, "\n"), strings.Join(want.matches, "\n"); g != w {
					t.Errorf("matches differ\nrouted blocks (%d):\n%s\none-event blocks (%d):\n%s", len(got.matches), g, len(want.matches), w)
				}
				if fmt.Sprint(got.deadLetters) != fmt.Sprint(want.deadLetters) {
					t.Errorf("dead letters differ\nrouted blocks:    %v\none-event blocks: %v", got.deadLetters, want.deadLetters)
				}
				if got.checkpoints != want.checkpoints || got.restarts != want.restarts ||
					got.watermark != want.watermark || got.err != want.err {
					t.Errorf("routed blocks:    %d checkpoints, %d restarts, watermark %s, err %q\none-event blocks: %d checkpoints, %d restarts, watermark %s, err %q",
						got.checkpoints, got.restarts, got.watermark, got.err,
						want.checkpoints, want.restarts, want.watermark, want.err)
				}
				if got.metrics != want.metrics {
					t.Errorf("Metrics differ\nrouted blocks:    %+v\none-event blocks: %+v", got.metrics, want.metrics)
				}
			})
		}
	}
}

// TestSuperviseBlocksKeyedChaos: a keyed runner (engine.WithPartitionKey)
// on a Supervise pipeline recovers from chaos panics striking
// mid-block — restoring its keyed checkpoint and replaying — with the
// output of a fault-free run, which is the keyed runner's own.
func TestSuperviseBlocksKeyedChaos(t *testing.T) {
	a := testAutomaton(t, 12)
	opts := []engine.Option{engine.WithPartitionKey("V")}
	rng := rand.New(rand.NewSource(3))
	labels := []string{"A", "B", "C"}
	evs := make([]event.Event, 300)
	for i := range evs {
		evs[i] = event.Event{Seq: i, Time: event.Time(100 + i), Attrs: []event.Value{
			event.Int(int64(i)), event.String(labels[rng.Intn(3)]), event.Float(float64(i % 5))}}
	}
	blocks, selected := routeBlocks(rng, evs, 16)
	run := func(panicAt []int64) pipelineOutcome {
		return runPipeline(t, Config{CheckpointEvery: 5}, panicAt, func(cfg Config) (<-chan []engine.Match, *Supervisor) {
			return Supervise(context.Background(), a, opts, sendBlocks(blocks), cfg)
		})
	}
	calm, chaos := run(nil), run([]int64{9, 40, 41, 77, 130})

	r := engine.New(a, opts...)
	var direct []string
	for i := range selected {
		ms, err := r.Step(&selected[i])
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			direct = append(direct, canonicalMatch(m))
		}
	}
	for _, m := range r.Flush() {
		direct = append(direct, canonicalMatch(m))
	}
	if len(direct) == 0 || chaos.restarts == 0 || chaos.err != "" || calm.err != "" {
		t.Fatalf("the case exercises too little: %d matches, %d restarts, errors %q %q",
			len(direct), chaos.restarts, chaos.err, calm.err)
	}
	for name, o := range map[string]pipelineOutcome{"fault-free": calm, "chaos": chaos} {
		if g, w := strings.Join(o.matches, "\n"), strings.Join(direct, "\n"); g != w {
			t.Errorf("%s run: matches differ from the keyed runner's\ngot (%d):\n%s\nwant (%d):\n%s", name, len(o.matches), g, len(direct), w)
		}
		if o.metrics != r.Metrics() {
			t.Errorf("%s run: Metrics %+v, keyed runner %+v", name, o.metrics, r.Metrics())
		}
	}
}

// TestUnrecoverableRunCutsNoCheckpoint: with recovery off and no
// checkpoint path, routed and one-event feeds cut no checkpoint
// however small the cadence, yet deliver the matches and dead letters
// of a checkpointing run; a panic then ends the stream.
func TestUnrecoverableRunCutsNoCheckpoint(t *testing.T) {
	a := testAutomaton(t, 12)
	rng := rand.New(rand.NewSource(5))
	blocks, selected := routeBlocks(rng, refusalStream(rng, 300, 300, [2]int{}), 16)
	oneEvent := func(cfg Config) (<-chan []engine.Match, *Supervisor) {
		return Supervise(context.Background(), a, nil, oneEventBlocks(selected), cfg)
	}
	routed := func(cfg Config) (<-chan []engine.Match, *Supervisor) {
		return Supervise(context.Background(), a, nil, sendBlocks(blocks), cfg)
	}
	want := runPipeline(t, Config{CheckpointEvery: 5}, nil, oneEvent)
	if len(want.matches) == 0 || len(want.deadLetters) == 0 || want.checkpoints == 0 {
		t.Fatalf("the case exercises too little: %d matches, %d dead letters, %d checkpoints",
			len(want.matches), len(want.deadLetters), want.checkpoints)
	}
	for name, run := range map[string]func(Config) (<-chan []engine.Match, *Supervisor){
		"one-event": oneEvent, "routed": routed,
	} {
		var got pipelineOutcome
		out, s := run(Config{MaxRestarts: -1, CheckpointEvery: 5, DeadLetter: func(e event.Event, reason error) {
			got.deadLetters = append(got.deadLetters, fmt.Sprintf("%v:%v", e.Attrs[0], reason))
		}})
		for ms := range out {
			for _, m := range ms {
				got.matches = append(got.matches, canonicalMatch(m))
			}
		}
		if err := s.Err(); err != nil || s.Checkpoints() != 0 {
			t.Errorf("%s: err %v, %d checkpoints, want none", name, err, s.Checkpoints())
		}
		if strings.Join(got.matches, "\n") != strings.Join(want.matches, "\n") ||
			fmt.Sprint(got.deadLetters) != fmt.Sprint(want.deadLetters) || s.Metrics() != want.metrics {
			t.Errorf("%s: %d matches and %d dead letters differ from the checkpointing run's %d and %d",
				name, len(got.matches), len(got.deadLetters), len(want.matches), len(want.deadLetters))
		}

		never := make(chan event.Event)
		close(never)
		out, s = run(Config{MaxRestarts: -1, faultHook: NewChaosSource(never, ChaosConfig{PanicAfter: []int64{40}}).FaultHook})
		for range out {
		}
		if err := s.Err(); err == nil || !strings.Contains(err.Error(), "giving up after 0 restarts") {
			t.Errorf("%s: a panic without recovery ended with %v", name, err)
		}
	}
}
