package bench

import (
	"encoding/json"
	"fmt"
	"os"
)

// Compare checks a freshly measured artifact against a committed
// baseline and returns one message per violation (empty means the gate
// passes). Timing (ns/op) and allocation (allocs/op) regressions are
// tolerated up to the given fraction (0.25 = +25%). Timing is judged
// relative to the calibration workload when both artifacts carry one:
// the baseline's ns/op is first scaled by current/baseline calibration
// time, so a slower or faster machine moves the limit with it, while a
// slower entry on the same machine does not. The correctness
// fingerprints — match count and maxΩ — must be exactly equal, and
// every baseline entry must be present in the current run. Entries
// only present in the current run pass silently: a freshly added
// benchmark has no baseline to regress against until the baseline is
// regenerated.
//
// Improvements never fail the gate; the baseline is refreshed by
// rerunning the command recorded in its Regenerate field.
func Compare(baseline, current *Artifact, tolerance float64) []string {
	var problems []string
	if tolerance < 0 {
		tolerance = 0
	}
	scale := 1.0
	if baseline.CalibrationNs > 0 && current.CalibrationNs > 0 {
		scale = current.CalibrationNs / baseline.CalibrationNs
	}
	cur := make(map[string]ArtifactEntry, len(current.Entries))
	for _, e := range current.Entries {
		cur[e.Name] = e
	}
	for _, b := range baseline.Entries {
		c, ok := cur[b.Name]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: present in baseline but not measured", b.Name))
			continue
		}
		if c.Matches != b.Matches {
			problems = append(problems, fmt.Sprintf("%s: match count changed %d -> %d (correctness fingerprint)",
				b.Name, b.Matches, c.Matches))
		}
		if c.MaxOmega != b.MaxOmega {
			problems = append(problems, fmt.Sprintf("%s: maxOmega changed %d -> %d (correctness fingerprint)",
				b.Name, b.MaxOmega, c.MaxOmega))
		}
		if want := b.NsPerOp * scale; want > 0 && c.NsPerOp > want*(1+tolerance) {
			problems = append(problems, fmt.Sprintf("%s: ns/op %.0f -> %.0f, %+.1f%% against the baseline scaled by calibration ×%.2f (tolerance %+.0f%%)",
				b.Name, b.NsPerOp, c.NsPerOp, 100*(c.NsPerOp/want-1), scale, 100*tolerance))
		}
		if b.AllocsPerOp > 0 && float64(c.AllocsPerOp) > float64(b.AllocsPerOp)*(1+tolerance) {
			problems = append(problems, fmt.Sprintf("%s: allocs/op %d -> %d (%+.1f%%, tolerance %+.0f%%)",
				b.Name, b.AllocsPerOp, c.AllocsPerOp,
				100*(float64(c.AllocsPerOp)/float64(b.AllocsPerOp)-1), 100*tolerance))
		}
	}
	return problems
}

// LoadArtifact reads a baseline artifact from disk.
func LoadArtifact(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return &a, nil
}
