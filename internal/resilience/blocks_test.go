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

// perMatch flattens SuperviseBlocks' block channel into the per-match
// channel of Supervise, so one harness drives and compares both.
func perMatch(out <-chan []engine.Match, s *Supervisor) (<-chan engine.Match, *Supervisor) {
	flat := make(chan engine.Match)
	go func() {
		defer close(flat)
		for ms := range out {
			for _, m := range ms {
				flat <- m
			}
		}
	}()
	return flat, s
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

// canonicalMatch renders m with every bound event's Seq replaced by its
// ID attribute, its source position: Supervise numbers events by
// position in what it stepped, SuperviseBlocks keeps the feeder's
// numbers, and the two agree on every other byte.
func canonicalMatch(m engine.Match) string {
	c := m
	c.Bindings = make([]engine.Binding, len(m.Bindings))
	for i, b := range m.Bindings {
		evs := make([]*event.Event, len(b.Events))
		for j, e := range b.Events {
			cp := *e
			cp.Seq = int(cp.Attrs[0].Int64())
			evs[j] = &cp
		}
		c.Bindings[i] = engine.Binding{Var: b.Var, Group: b.Group, Events: evs}
	}
	out, err := engine.MatchJSON(c, testSchema())
	if err != nil {
		return err.Error()
	}
	return string(out)
}

// runPipeline drives one supervised pipeline to the end of its input
// and collects its outcome; run starts it with the given config.
func runPipeline(t *testing.T, cfg Config, panicAt []int64,
	run func(Config) (<-chan engine.Match, *Supervisor)) pipelineOutcome {
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
	for m := range out {
		o.matches = append(o.matches, canonicalMatch(m))
	}
	if err := s.Err(); err != nil {
		o.err = err.Error()
	}
	o.checkpoints, o.restarts, o.metrics = s.Checkpoints(), s.Restarts(), s.Metrics()
	w, ok, err := CheckpointOffset(cfg.CheckpointPath)
	o.watermark = fmt.Sprint(w, ok, err)
	return o
}

// TestSuperviseBlocksIsSupervise: SuperviseBlocks stepping routed Idx
// blocks — with schema-invalid, sentinel and late events inside them,
// checkpoint cadences that do not divide the block size, chaos panics
// striking mid-block, and a Fail-policy cap — delivers exactly what
// Supervise delivers over the same events one at a time: the same
// match bytes, dead letters, checkpoints, restarts, on-disk watermark,
// error and Metrics.
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

				want := runPipeline(t, tc.cfg, tc.panicAt, func(cfg Config) (<-chan engine.Match, *Supervisor) {
					in := make(chan event.Event)
					go func() {
						defer close(in)
						for _, e := range selected {
							in <- e
						}
					}()
					return Supervise(context.Background(), a, tc.opts, in, cfg)
				})
				got := runPipeline(t, tc.cfg, tc.panicAt, func(cfg Config) (<-chan engine.Match, *Supervisor) {
					in := make(chan event.Block)
					go func() {
						defer close(in)
						for _, b := range blocks {
							in <- b
						}
					}()
					return perMatch(SuperviseBlocks(context.Background(), a, tc.opts, in, cfg))
				})

				if len(want.matches) == 0 || len(want.deadLetters) == 0 || want.checkpoints == 0 {
					t.Fatalf("the case exercises too little: %d matches, %d dead letters, %d checkpoints",
						len(want.matches), len(want.deadLetters), want.checkpoints)
				}
				t.Logf("%d matches, %d dead letters, %d checkpoints, %d restarts, watermark %s",
					len(want.matches), len(want.deadLetters), want.checkpoints, want.restarts, want.watermark)
				if tc.fail != strings.Contains(want.err, "exceed the cap") {
					t.Fatalf("Supervise ended with %q", want.err)
				}
				if len(tc.panicAt) > 0 && want.restarts == 0 {
					t.Fatal("no injected panic struck")
				}
				if g, w := strings.Join(got.matches, "\n"), strings.Join(want.matches, "\n"); g != w {
					t.Errorf("matches differ\nSuperviseBlocks (%d):\n%s\nSupervise (%d):\n%s", len(got.matches), g, len(want.matches), w)
				}
				if fmt.Sprint(got.deadLetters) != fmt.Sprint(want.deadLetters) {
					t.Errorf("dead letters differ\nSuperviseBlocks: %v\nSupervise:       %v", got.deadLetters, want.deadLetters)
				}
				if got.checkpoints != want.checkpoints || got.restarts != want.restarts ||
					got.watermark != want.watermark || got.err != want.err {
					t.Errorf("SuperviseBlocks: %d checkpoints, %d restarts, watermark %s, err %q\nSupervise:       %d checkpoints, %d restarts, watermark %s, err %q",
						got.checkpoints, got.restarts, got.watermark, got.err,
						want.checkpoints, want.restarts, want.watermark, want.err)
				}
				if got.metrics != want.metrics {
					t.Errorf("Metrics differ\nSuperviseBlocks: %+v\nSupervise:       %+v", got.metrics, want.metrics)
				}
			})
		}
	}
}

// TestSuperviseBlocksKeyedChaos: a keyed runner (engine.WithPartitionKey)
// on a SuperviseBlocks pipeline recovers from chaos panics striking
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
		return runPipeline(t, Config{CheckpointEvery: 5}, panicAt, func(cfg Config) (<-chan engine.Match, *Supervisor) {
			in := make(chan event.Block)
			go func() {
				defer close(in)
				for _, b := range blocks {
					in <- b
				}
			}()
			return perMatch(SuperviseBlocks(context.Background(), a, opts, in, cfg))
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
// checkpoint path, SuperviseBlocks and Supervise cut no checkpoint
// however small the cadence, yet deliver the matches and dead letters
// of a checkpointing run; a panic then ends the stream.
func TestUnrecoverableRunCutsNoCheckpoint(t *testing.T) {
	a := testAutomaton(t, 12)
	rng := rand.New(rand.NewSource(5))
	blocks, selected := routeBlocks(rng, refusalStream(rng, 300, 300, [2]int{}), 16)
	supervise := func(cfg Config) (<-chan engine.Match, *Supervisor) {
		in := make(chan event.Event)
		go func() {
			defer close(in)
			for _, e := range selected {
				in <- e
			}
		}()
		return Supervise(context.Background(), a, nil, in, cfg)
	}
	superviseBlocks := func(cfg Config) (<-chan engine.Match, *Supervisor) {
		in := make(chan event.Block)
		go func() {
			defer close(in)
			for _, b := range blocks {
				in <- b
			}
		}()
		return perMatch(SuperviseBlocks(context.Background(), a, nil, in, cfg))
	}
	want := runPipeline(t, Config{CheckpointEvery: 5}, nil, supervise)
	if len(want.matches) == 0 || len(want.deadLetters) == 0 || want.checkpoints == 0 {
		t.Fatalf("the case exercises too little: %d matches, %d dead letters, %d checkpoints",
			len(want.matches), len(want.deadLetters), want.checkpoints)
	}
	for name, run := range map[string]func(Config) (<-chan engine.Match, *Supervisor){
		"Supervise": supervise, "SuperviseBlocks": superviseBlocks,
	} {
		var got pipelineOutcome
		out, s := run(Config{MaxRestarts: -1, CheckpointEvery: 5, DeadLetter: func(e event.Event, reason error) {
			got.deadLetters = append(got.deadLetters, fmt.Sprintf("%v:%v", e.Attrs[0], reason))
		}})
		for m := range out {
			got.matches = append(got.matches, canonicalMatch(m))
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
