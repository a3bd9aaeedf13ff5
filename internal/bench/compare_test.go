package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func art(entries ...ArtifactEntry) *Artifact { return &Artifact{Entries: entries} }

func TestCompareTolerance(t *testing.T) {
	base := art(ArtifactEntry{Name: "X", NsPerOp: 1000, AllocsPerOp: 100, Matches: 5, MaxOmega: 3})
	cases := []struct {
		name string
		cur  ArtifactEntry
		want string // fragment of the expected problem, "" for pass
	}{
		{"identical", ArtifactEntry{Name: "X", NsPerOp: 1000, AllocsPerOp: 100, Matches: 5, MaxOmega: 3}, ""},
		{"within tolerance", ArtifactEntry{Name: "X", NsPerOp: 1200, AllocsPerOp: 120, Matches: 5, MaxOmega: 3}, ""},
		{"faster is fine", ArtifactEntry{Name: "X", NsPerOp: 10, AllocsPerOp: 1, Matches: 5, MaxOmega: 3}, ""},
		{"time regression", ArtifactEntry{Name: "X", NsPerOp: 1300, AllocsPerOp: 100, Matches: 5, MaxOmega: 3}, "ns/op"},
		{"alloc regression", ArtifactEntry{Name: "X", NsPerOp: 1000, AllocsPerOp: 130, Matches: 5, MaxOmega: 3}, "allocs/op"},
		{"match drift", ArtifactEntry{Name: "X", NsPerOp: 1000, AllocsPerOp: 100, Matches: 6, MaxOmega: 3}, "match count"},
		{"omega drift", ArtifactEntry{Name: "X", NsPerOp: 1000, AllocsPerOp: 100, Matches: 5, MaxOmega: 4}, "maxOmega"},
	}
	for _, c := range cases {
		got := Compare(base, art(c.cur), 0.25)
		if c.want == "" {
			if len(got) != 0 {
				t.Errorf("%s: unexpected problems %v", c.name, got)
			}
			continue
		}
		if len(got) != 1 || !strings.Contains(got[0], c.want) {
			t.Errorf("%s: problems %v, want one containing %q", c.name, got, c.want)
		}
	}
}

// TestCompareCalibration: ns/op is judged against the baseline scaled
// by the calibration ratio, so a uniformly slower machine passes and a
// slower entry fails whatever the machine.
func TestCompareCalibration(t *testing.T) {
	base := &Artifact{CalibrationNs: 1000, Entries: []ArtifactEntry{
		{Name: "A", NsPerOp: 100, AllocsPerOp: 10, Matches: 1},
		{Name: "B", NsPerOp: 5000, AllocsPerOp: 10, Matches: 2},
	}}
	cases := []struct {
		name     string
		machine  float64 // calibration time over the baseline's
		entries  float64 // every entry's ns/op over the baseline's
		slowB    bool    // B is 2x slower on top
		failures []string
	}{
		{"every entry and the calibration 1.8x slower", 1.8, 1.8, false, nil},
		{"every entry and the calibration 2x faster", 0.5, 0.5, false, nil},
		{"one entry 2x slower", 1, 1, true, []string{"B"}},
		{"one entry 2x slower on a 1.8x slower machine", 1.8, 1.8, true, []string{"B"}},
		{"every entry 1.5x slower, calibration unchanged", 1, 1.5, false, []string{"A", "B"}},
		{"unchanged entries on a 2x faster machine", 0.5, 1, false, []string{"A", "B"}},
	}
	for _, c := range cases {
		cur := &Artifact{CalibrationNs: base.CalibrationNs * c.machine}
		for _, e := range base.Entries {
			e.NsPerOp *= c.entries
			if c.slowB && e.Name == "B" {
				e.NsPerOp *= 2
			}
			cur.Entries = append(cur.Entries, e)
		}
		got := Compare(base, cur, 0.25)
		if len(got) != len(c.failures) {
			t.Errorf("%s: problems %v, want one for each of %v", c.name, got, c.failures)
			continue
		}
		for i, name := range c.failures {
			if !strings.HasPrefix(got[i], name+": ns/op") {
				t.Errorf("%s: problem %q, want an ns/op violation of %s", c.name, got[i], name)
			}
		}
	}
	// A baseline without a calibration is compared in absolute ns/op,
	// as before calibration was recorded.
	cur := &Artifact{CalibrationNs: 1800}
	for _, e := range base.Entries {
		e.NsPerOp *= 1.8
		cur.Entries = append(cur.Entries, e)
	}
	if got := Compare(&Artifact{Entries: base.Entries}, cur, 0.25); len(got) != 2 {
		t.Errorf("uncalibrated baseline: problems %v, want both entries over +25%%", got)
	}
}

func TestCompareMissingAndExtraEntries(t *testing.T) {
	base := art(ArtifactEntry{Name: "gone", NsPerOp: 1, Matches: 1})
	cur := art(ArtifactEntry{Name: "new", NsPerOp: 1, Matches: 1})
	got := Compare(base, cur, 0.25)
	if len(got) != 1 || !strings.Contains(got[0], "gone") {
		t.Errorf("problems %v, want exactly the missing-entry violation", got)
	}
}

func TestLoadArtifactRoundTrip(t *testing.T) {
	a := &Artifact{Profile: "small", Entries: []ArtifactEntry{{Name: "X", NsPerOp: 42, Matches: 7}}}
	data, err := a.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 1 || got.Entries[0].NsPerOp != 42 || got.Profile != "small" {
		t.Errorf("round trip lost data: %+v", got)
	}
	if problems := Compare(a, got, 0); len(problems) != 0 {
		t.Errorf("artifact does not compare clean against itself: %v", problems)
	}
}
