package server_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/paperdata"
	"repro/internal/server"
)

// TestQueriesDuringFirstIngest: without a WAL or checkpoint directory a
// query's pipeline starts lazily, on the ingest goroutine, inside the
// first Ingest that routes a block to it. Listing the queries meanwhile
// — what an operator's poll of processed_through does — reads the
// supervisor handle that start is publishing. Run under -race.
func TestQueriesDuringFirstIngest(t *testing.T) {
	rel := paperdata.Relation()
	for trial := 0; trial < 20; trial++ {
		s, err := server.New(server.Config{Schema: rel.Schema()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.AddQuery(server.QuerySpec{ID: "q1", Query: paperdata.QueryQ1Text}); err != nil {
			t.Fatal(err)
		}
		started, stop := make(chan struct{}), make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			close(started)
			for {
				if qs := s.Queries(); len(qs) != 1 {
					t.Errorf("Queries() lists %d queries, want 1", len(qs))
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
		<-started
		if _, err := s.Ingest(rel.Events()); err != nil {
			t.Fatal(err)
		}
		close(stop)
		wg.Wait()
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		info, err := s.Query("q1")
		if err != nil {
			t.Fatal(err)
		}
		if info.ProcessedThrough == nil || info.Emitted != 3 {
			t.Fatalf("after drain: processed_through %v, emitted %d, want a watermark and 3", info.ProcessedThrough, info.Emitted)
		}
	}
}
