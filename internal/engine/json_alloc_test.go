//go:build !race

// Allocation counts mean nothing under the race detector, so this file
// is left out of -race builds.

package engine

import (
	"testing"

	"repro/internal/paperdata"
)

// TestAppendMatchJSONAllocations: encoding into a buffer that already
// has room allocates nothing — the attribute order comes with the
// schema, not from a sort per call. MatchJSON sorted the field order
// and regrew a fresh line buffer on every call.
func TestAppendMatchJSONAllocations(t *testing.T) {
	a := compile(t, paperdata.QueryQ1(), paperdata.Schema())
	matches, _, err := Run(a, paperdata.Relation())
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no matches to encode")
	}
	schema := paperdata.Schema()
	var buf []byte
	encodeAll := func() {
		buf = buf[:0]
		for _, m := range matches {
			if buf, err = AppendMatchJSON(buf, m, schema); err != nil {
				t.Fatal(err)
			}
		}
	}
	encodeAll() // warm the buffer
	if n := testing.AllocsPerRun(100, encodeAll); n != 0 {
		t.Errorf("AppendMatchJSON of %d matches into a warmed buffer: %.1f allocations, want 0", len(matches), n)
	}
}
