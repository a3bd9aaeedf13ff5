package engine

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/automaton"
	"repro/internal/event"
	"repro/internal/pattern"
)

// checkEncoderBlock encodes one block of matches with enc, without
// resetting it, and with the one-shot AppendMatchJSON into a second
// buffer, and fails unless the two agree byte for byte and error for
// error after every match. It returns how many matches failed to
// encode.
func checkEncoderBlock(t *testing.T, enc *MatchEncoder, ms []Match, schema *event.Schema) (failed int) {
	t.Helper()
	var got, want []byte
	for i, m := range ms {
		var gerr, werr error
		got, gerr = enc.Append(got, m)
		want, werr = AppendMatchJSON(want, m, schema)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("match %d: cached encoder error %v, one-shot error %v", i, gerr, werr)
		}
		if werr != nil {
			failed++
		}
		if string(got) != string(want) {
			t.Fatalf("match %d: cached encoder drifts:\ngot:  %s\nwant: %s", i, got, want)
		}
	}
	return failed
}

// matchBlocks steps evs through a runner in blocks of size events and
// returns each step's matches (the flush's last), copied out of the
// runner's reused result.
func matchBlocks(t testing.TB, a *automaton.Automaton, evs []event.Event, size int) [][]Match {
	t.Helper()
	r := New(a)
	var blocks [][]Match
	for lo := 0; lo < len(evs); lo += size {
		ms, err := r.StepBlock(event.Block{Events: evs[lo:min(lo+size, len(evs))]})
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) > 0 {
			blocks = append(blocks, slices.Clone(ms))
		}
	}
	if ms := r.Flush(); len(ms) > 0 {
		blocks = append(blocks, slices.Clone(ms))
	}
	return blocks
}

// TestMatchEncoderIdentity: the caching encoder, reset after each
// block, writes exactly the bytes of one-shot AppendMatchJSON, block by
// block, and fails exactly the matches it fails. A NaN or infinite
// value cuts only the matches that bind it; later matches of the block
// that reuse the good events around it are unchanged.
func TestMatchEncoderIdentity(t *testing.T) {
	t.Run("group", func(t *testing.T) {
		// The group pattern's matches on the overlapping stream share
		// most of their events; every 40th 'P' carries a NaN or ±Inf.
		schema, evs := overlapStream(t, 8)
		li, _ := schema.Index("L")
		vi, _ := schema.Index("V")
		bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
		for i, p := 0, 0; i < len(evs); i++ {
			if evs[i].Attrs[li].Str() == "P" {
				if p%40 == 3 {
					evs[i].Attrs[vi] = event.Float(bad[p%len(bad)])
				}
				p++
			}
		}
		enc := NewMatchEncoder(schema)
		var failed, served, mixed, bound int
		for _, ms := range matchBlocks(t, compile(t, groupPattern(), schema), evs, 32) {
			f := checkEncoderBlock(t, enc, ms, schema)
			failed += f
			served += len(ms) - f
			if f > 0 && f < len(ms) {
				mixed++
			}
			bound += len(enc.spans)
			enc.Reset()
		}
		var events int
		for _, ms := range matchBlocks(t, compile(t, groupPattern(), schema), evs, 32) {
			for _, m := range ms {
				events += m.EventCount()
			}
		}
		if failed == 0 || served == 0 || mixed == 0 {
			t.Fatalf("%d matches failed, %d served, %d blocks with both: the stream must exercise both in one block", failed, served, mixed)
		}
		if bound*2 > events {
			t.Fatalf("%d events rendered for %d bound: the stream must reuse events", bound, events)
		}
		t.Logf("%d matches served, %d failed; %d bound events, %d rendered", served, failed, events, bound)
	})

	t.Run("synthetic", func(t *testing.T) {
		schema := simpleSchema()
		ev := func(seq int, v float64) *event.Event {
			return &event.Event{Seq: seq, Time: event.Time(10 * seq),
				Attrs: []event.Value{event.Int(int64(seq)), event.String(fmt.Sprintf("L<%d>", seq)), event.Float(v)}}
		}
		one := func(evs ...*event.Event) Match {
			return Match{First: evs[0].Time, Last: evs[len(evs)-1].Time, Bindings: []Binding{{Var: "x", Events: evs}}}
		}
		good, nan := ev(0, 1.5), ev(1, math.NaN())
		// The failing event sits mid-block, between matches on the good
		// one, and in the same binding as it.
		blocks := [][]Match{{one(good), one(good, nan), one(nan), one(good, good), one(good)}}

		rng := rand.New(rand.NewSource(41))
		values := []float64{0, -2.5, 1e-7, 1e21, 123456789.125, math.NaN(), math.Inf(1), math.Inf(-1)}
		for len(blocks) < 40 {
			pool := make([]*event.Event, 1+rng.Intn(12))
			for i := range pool {
				v := values[rng.Intn(len(values))]
				if rng.Intn(3) > 0 {
					v = values[rng.Intn(5)] // mostly encodable
				}
				pool[i] = ev(100*len(blocks)+i, v)
			}
			ms := make([]Match, rng.Intn(20))
			for i := range ms {
				m := Match{First: event.Time(i), Last: event.Time(i + 5)}
				if rng.Intn(10) > 0 {
					m.Bindings = make([]Binding, 1+rng.Intn(3))
				}
				// One event in every binding of the match, then random ones.
				shared := pool[rng.Intn(len(pool))]
				for bi := range m.Bindings {
					bind := Binding{Var: fmt.Sprintf("v%d", bi), Group: rng.Intn(2) == 0}
					if rng.Intn(10) > 0 {
						bind.Events = []*event.Event{shared}
						for k := rng.Intn(4); k > 0; k-- {
							bind.Events = append(bind.Events, pool[rng.Intn(len(pool))])
						}
					}
					m.Bindings[bi] = bind
				}
				ms[i] = m
			}
			blocks = append(blocks, ms)
		}

		enc := NewMatchEncoder(schema)
		for bi, ms := range blocks {
			failed := checkEncoderBlock(t, enc, ms, schema)
			if bi == 0 && failed != 2 {
				t.Fatalf("first block: %d matches failed, want the 2 that bind the NaN event", failed)
			}
			enc.Reset()
			if len(enc.spans) != 0 || len(enc.events) != 0 {
				t.Fatalf("block %d: after Reset the cache holds %d events, %d bytes", bi, len(enc.spans), len(enc.events))
			}
		}
	})
}

// TestMatchEncoderResetReleasesEvents: once Reset, the encoder holds no
// pointer to the events of the block before, so they can be collected
// while the encoder lives on to encode the next block.
func TestMatchEncoderResetReleasesEvents(t *testing.T) {
	schema := simpleSchema()
	enc := NewMatchEncoder(schema)
	collected := make(chan struct{})
	func() {
		e := &event.Event{Seq: 1, Time: 1, Attrs: []event.Value{event.Int(1), event.String("A"), event.Float(1)}}
		runtime.SetFinalizer(e, func(*event.Event) { close(collected) })
		m := Match{First: 1, Last: 1, Bindings: []Binding{{Var: "x", Events: []*event.Event{e, e}}}}
		if _, err := enc.Append(nil, m); err != nil {
			t.Fatal(err)
		}
	}()
	enc.Reset()
	next := &event.Event{Seq: 2, Time: 2, Attrs: []event.Value{event.Int(2), event.String("B"), event.Float(2)}}
	if _, err := enc.Append(nil, Match{First: 2, Last: 2, Bindings: []Binding{{Var: "x", Events: []*event.Event{next}}}}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(enc)
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the previous block's event was not collected after Reset: the encoder still references it")
		}
	}
}

// BenchmarkMatchEncoder times encoding each stepped block's matches
// into one reused buffer, one-shot (AppendMatchJSON, every bound event
// rendered per match) and cached (MatchEncoder, reset per block), in
// ns/match. The group pattern's matches on the overlapping stream share
// most of their events; the singleton pattern's bind one event each,
// so its cached run shows what the cache costs when nothing is reused.
func BenchmarkMatchEncoder(b *testing.B) {
	schema, evs := overlapStream(b, 8)
	singleton := pattern.New().
		Set(pattern.Var("x")).
		WhereConst("x", "L", pattern.Eq, event.String("P")).
		Within(event.Duration(264 * event.Hour)).MustBuild()
	for _, c := range []struct {
		name string
		p    *pattern.Pattern
	}{{"group", groupPattern()}, {"singleton", singleton}} {
		a, err := automaton.Compile(c.p, schema)
		if err != nil {
			b.Fatal(err)
		}
		blocks := matchBlocks(b, a, evs, 64)
		n := 0
		for _, ms := range blocks {
			n += len(ms)
		}
		for _, cached := range []bool{false, true} {
			name := c.name + "/oneshot"
			if cached {
				name = c.name + "/cached"
			}
			b.Run(name, func(b *testing.B) {
				enc := NewMatchEncoder(schema)
				var buf []byte
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, ms := range blocks {
						buf = buf[:0]
						for _, m := range ms {
							if cached {
								buf, err = enc.Append(buf, m)
							} else {
								buf, err = AppendMatchJSON(buf, m, schema)
							}
							if err != nil {
								b.Fatal(err)
							}
						}
						enc.Reset()
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/match")
			})
		}
	}
}
