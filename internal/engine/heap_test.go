//go:build !race

// Heap readings mean nothing under the race detector's shadow memory,
// so this file is left out of -race builds.

package engine

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chemo"
	"repro/internal/event"
	"repro/internal/paperdata"
	"repro/internal/pattern"
)

// heapBlock is the ingest batch size of the serving layer: a bound event
// pins the whole decoded block it sits in.
const heapBlock = 256

// shiftedBlocks renders one time-shifted pass of the relation the way
// the serving layer decodes it: fresh 256-event blocks, each with its
// attribute values in one shared array.
func shiftedBlocks(rel *event.Relation, shift event.Time) []event.Block {
	src := rel.Events()
	var blocks []event.Block
	for lo := 0; lo < len(src); lo += heapBlock {
		hi := min(lo+heapBlock, len(src))
		nf := len(src[lo].Attrs)
		evs := make([]event.Event, hi-lo)
		vals := make([]event.Value, (hi-lo)*nf)
		for i := range evs {
			row := vals[i*nf : (i+1)*nf : (i+1)*nf]
			copy(row, src[lo+i].Attrs)
			evs[i] = event.Event{Seq: lo + i, Time: src[lo+i].Time + shift, Attrs: row}
		}
		blocks = append(blocks, event.Block{Events: evs})
	}
	return blocks
}

// liveHeap is HeapAlloc after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestHeapFlatAcrossPasses is the engine half of the flat-heap soak
// (ROADMAP item 4): one Runner steps 20 time-shifted passes of a chemo
// stream, and what it keeps alive must be the τ window, not the stream.
// Before chunk retirement the arena's chunks kept each other — and every
// block with a bound event — alive from the first event on, and this
// test read over 6x. After every block no buffer node older than τ is
// reachable from the runner's classes.
func TestHeapFlatAcrossPasses(t *testing.T) {
	rel := chemo.MustGenerate(chemo.Small())
	first, last, _ := rel.TimeSpan()
	q1 := paperdata.QueryQ1()
	stride := last - first + event.Time(q1.Window) + 1
	cpb := pattern.New().
		Set(pattern.Var("c"), pattern.Var("p")).
		Set(pattern.Var("b")).
		WhereConst("c", "L", pattern.Eq, event.String("C")).
		WhereConst("p", "L", pattern.Eq, event.String("P")).
		WhereConst("b", "L", pattern.Eq, event.String("B")).
		WhereVars("c", "ID", pattern.Eq, "p", "ID").
		WhereVars("c", "ID", pattern.Eq, "b", "ID").
		Within(q1.Window).MustBuild()

	cases := []struct {
		name    string
		pat     *pattern.Pattern
		block   bool
		aggOnly bool
		opts    []Option
	}{
		{name: "step", pat: q1},
		{name: "step/filter", pat: q1, opts: []Option{WithFilter(true)}},
		{name: "block/filter", pat: q1, block: true, opts: []Option{WithFilter(true)}},
		{name: "block/aggregate-only", pat: q1, block: true, aggOnly: true, opts: []Option{WithFilter(true)}},
		{name: "step/skip-till-any", pat: cpb, opts: []Option{WithStrategy(SkipTillAny), WithFilter(true)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := compile(t, tc.pat, rel.Schema())
			opts := tc.opts
			if tc.aggOnly {
				spec := &pattern.AggSpec{Items: []pattern.AggItem{
					{Func: pattern.AggCount}, {Func: pattern.AggSum, Var: "p", Attr: "V"}}}
				opts = append(opts, WithAggregation(NewAggregator(mustAggPlan(t, a, spec))), WithAggregateOnly(true))
			}
			r := New(a, opts...)
			var heap2, heap20 uint64
			var chunks2, chunks20, matches int
			for pass := 1; pass <= 20; pass++ {
				peak := 0
				for _, blk := range shiftedBlocks(rel, event.Time(pass)*stride) {
					if tc.block {
						ms, err := r.StepBlock(blk)
						if err != nil {
							t.Fatal(err)
						}
						matches += len(ms)
					} else {
						for i := range blk.Events {
							ms, err := r.Step(&blk.Events[i])
							if err != nil {
								t.Fatal(err)
							}
							matches += len(ms)
						}
					}
					assertWindowReachable(t, r)
					peak = max(peak, len(r.arena.filled))
				}
				switch pass {
				case 2:
					heap2, chunks2 = liveHeap(), peak
				case 20:
					heap20, chunks20 = liveHeap(), peak
				}
			}
			if tc.aggOnly {
				matches = int(r.Metrics().Matches)
			}
			if matches == 0 {
				t.Fatal("no matches: the stream binds nothing and proves nothing")
			}
			if float64(heap20) > 1.25*float64(heap2) {
				t.Errorf("live heap after pass 20 is %d B, %.2fx the %d B after pass 2 (want <= 1.25x)",
					heap20, float64(heap20)/float64(heap2), heap2)
			}
			// Every pass is the same stream, so the retained chunks peak
			// alike up to where the chunk boundaries happen to fall.
			if chunks20 > chunks2+2 {
				t.Errorf("arena retains up to %d filled chunks in pass 20, %d in pass 2", chunks20, chunks2)
			}
			runtime.KeepAlive(r)
		})
	}
}

// TestSparseMatchesPinNoOldBlocks: a query that completes one match
// every few windows creates two buffer nodes and cuts one match from
// the match arena per match, so neither its node chunk nor its match
// arena chunks fill for dozens of windows. What the runner keeps must
// still be bounded by τ: after the stream, no decoded block whose
// newest event is more than 2τ behind the clock may stay reachable.
func TestSparseMatchesPinNoOldBlocks(t *testing.T) {
	const (
		within  = 100
		nblocks = 400
		period  = 3 * within // one A→B match per period
	)
	a := compile(t, seqPattern(t, within), simpleSchema())
	r := New(a)
	freed := make([]atomic.Bool, nblocks)
	last := make([]event.Time, nblocks)
	tm, matches := event.Time(0), 0
	for b := 0; b < nblocks; b++ {
		evs := make([]event.Event, 16)
		for i := range evs {
			tm += 2
			l := "C"
			switch tm % period {
			case 2:
				l = "A"
			case 10:
				l = "B"
			}
			evs[i] = event.Event{Seq: b*len(evs) + i, Time: tm,
				Attrs: []event.Value{event.Int(1), event.String(l), event.Float(0)}}
		}
		ms, err := r.StepBlock(event.Block{Events: evs})
		if err != nil {
			t.Fatal(err)
		}
		matches += len(ms)
		last[b] = tm
		runtime.SetFinalizer(&evs[0], func(*event.Event) { freed[b].Store(true) })
	}
	if matches < nblocks*16*2/period-2 {
		t.Fatalf("%d matches, want one per %d ticks", matches, period)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		runtime.GC()
		var pinned []int
		for b := range last {
			if event.Duration(tm-last[b]) > 2*within && !freed[b].Load() {
				pinned = append(pinned, b)
			}
		}
		if len(pinned) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d blocks older than 2τ are still reachable from the runner, the oldest ending at %d (clock %d)",
				len(pinned), last[pinned[0]], tm)
		}
	}
	runtime.KeepAlive(r)
}
