//go:build !race

// Allocation counts mean nothing under the race detector, so this file
// is left out of -race builds.

package resilience

import (
	"context"
	"testing"

	"repro/internal/event"
)

// TestSuperviseBlocksAllocations bounds what a warmed slack-0
// Supervise pipeline allocates per delivered event when it steps
// 256-event routed blocks: well under one object, because a block is
// admitted, stepped and kept for replay by reference. Copying each
// event out of its block, as the pipeline once did, costs one object
// per event on its own.
func TestSuperviseBlocksAllocations(t *testing.T) {
	// One A→B match per 64 events, most of the rest noise: a window of
	// 100 events holds a couple of instances, like the serving
	// benchmark's Q1 on its noise stream.
	a := testAutomaton(t, 100)
	const bs = 256
	var blocks []event.Block
	delivered := 0
	for b := 0; b < 64; b++ {
		evs := make([]event.Event, bs)
		vals := make([]event.Value, 3*bs)
		idx := make([]int32, 0, bs)
		for i := range evs {
			pos := b*bs + i
			l := "C"
			switch pos % 64 {
			case 0:
				l = "A"
			case 1:
				l = "B"
			}
			row := vals[3*i : 3*i+3 : 3*i+3]
			row[0], row[1], row[2] = event.Int(1), event.String(l), event.Float(0)
			evs[i] = event.Event{Seq: pos, Time: event.Time(pos), Attrs: row}
			if l != "C" || i%2 == 0 {
				idx = append(idx, int32(i))
			}
		}
		blocks = append(blocks, event.Block{Events: evs, Idx: idx})
		delivered += len(idx)
	}

	in := make(chan event.Block)
	out, s := Supervise(context.Background(), a, nil, in, Config{})
	matches := make(chan int)
	go func() {
		n := 0
		for ms := range out {
			n += len(ms)
		}
		matches <- n
	}()
	// The mailbox is unbuffered: a send completes once the pipeline has
	// finished the block before, so each measured run accounts for one
	// whole block (shifted by one).
	next := 0
	send := func() {
		in <- blocks[next]
		next++
	}
	for next < 8 {
		send()
	}
	perBlock := testing.AllocsPerRun(len(blocks)-next-1, send)
	close(in)
	if n := <-matches; n == 0 {
		t.Fatal("no matches: the stream binds nothing and proves nothing")
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	perEvent := perBlock / (float64(delivered) / float64(len(blocks)))
	t.Logf("%.1f allocations per block, %.3f per delivered event", perBlock, perEvent)
	if perEvent > 0.25 {
		t.Errorf("%.3f allocations per delivered event, want well under one", perEvent)
	}
}
