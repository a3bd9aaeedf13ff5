package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestWorkloadsSmall runs every workload of BENCHMARK.json at about a
// fiftieth of its size, untraced and traced, with no paced phase. It
// keeps the harness compiling and honest under plain `go test ./...`:
// the served output must equal the library reference, and every metric
// BENCHMARK.json names must be printed exactly once by the mode that
// owns it.
func TestWorkloadsSmall(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range man.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads() {
		have = append(have, w.name)
	}
	if strings.Join(names, " ") != strings.Join(have, " ") {
		t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark has %v", names, have)
	}
	for _, w := range workloads() {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			res, err := newHarness(options{w: w, seed: 1, seconds: 0.05, trace: trace, scale: 0.02,
				setups: 1, scratch: t.TempDir(), out: &out}).run(context.Background())
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.name, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					w.name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := man.EndToEnd
			if trace {
				want = man.PerLayer
			}
			printed := map[string]int{}
			for _, line := range strings.Split(out.String(), "\n") {
				if f := strings.Fields(line); len(f) == 3 {
					printed[f[0]+" "+f[2]]++
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics in the result, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: result has %s as %+v (present %v), want unit %s", w.name, trace, m.Name, got, ok, m.Unit)
				}
				if n := printed[m.Name+" "+m.Unit]; n != 1 {
					t.Errorf("%s trace=%v: %s [%s] printed %d times, want once", w.name, trace, m.Name, m.Unit, n)
				}
			}
		}
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(values, n=4), by which spreads are judged.
func TestQuartiles(t *testing.T) {
	got := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if want := [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
	got = quartiles([]float64{3, 1, 2})
	if want := [3]float64{1, 2, 3}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}
