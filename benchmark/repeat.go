package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// manifest is the part of BENCHMARK.json the repeat mode reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles are the first, second and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method),
// which is how the spread of this benchmark is judged.
func quartiles(values []float64) (q [3]float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	m := len(x) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(x)-1)
		delta := float64(i*m - j*4)
		q[i-1] = (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return q
}

// repeatSets runs every workload of BENCHMARK.json n times in fresh
// processes, run i with seed+i, and prints for each workload and
// end-to-end metric the median, the quartiles and the spread (third
// minus first quartile over the median) against the metric's bound. It
// fails when a spread exceeds its bound or a run is incorrect.
func repeatSets(ctx context.Context, n int, seed int64, seconds float64) error {
	if n < 2 {
		return fmt.Errorf("-repeat needs at least 2 runs to have quartiles")
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{} // workload/metric -> one value per run
	for i := 0; i < n; i++ {
		for _, w := range m.Workloads {
			cmd := exec.CommandContext(ctx, self, "-workload", w.Name, "-seed", strconv.FormatInt(seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, seed+int64(i), err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte{'\n'})
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s seed %d: last line: %w", w.Name, seed+int64(i), err)
			}
			if !res.Correct || res.Failed != 0 {
				return fmt.Errorf("%s seed %d: %d of %d failed", w.Name, seed+int64(i), res.Failed, res.Attempted)
			}
			fmt.Printf("run %d %s seed %d:", i+1, w.Name, seed+int64(i))
			for _, em := range m.EndToEnd {
				v, ok := res.Metrics[em.Name]
				if !ok {
					return fmt.Errorf("%s: metric %s missing from the output", w.Name, em.Name)
				}
				values[w.Name+"/"+em.Name] = append(values[w.Name+"/"+em.Name], v.Value)
				fmt.Printf(" %s=%.6g", em.Name, v.Value)
			}
			fmt.Println()
		}
	}
	fmt.Printf("\n%-16s %-22s %-13s %12s %12s %12s %8s %6s\n", "workload", "metric", "unit", "q1", "median", "q3", "spread", "bound")
	var over []string
	for _, w := range m.Workloads {
		for _, em := range m.EndToEnd {
			q := quartiles(values[w.Name+"/"+em.Name])
			spread := (q[2] - q[0]) / q[1]
			note := ""
			switch {
			case spread > em.Bound && em.Name != "setup_s": // set-up time is held to its median only
				note = "  OVER"
				over = append(over, w.Name+"/"+em.Name)
			case spread > em.Bound/3:
				note = "  above a third"
			}
			fmt.Printf("%-16s %-22s %-13s %12.6g %12.6g %12.6g %7.2f%% %5.0f%%%s\n",
				w.Name, em.Name, em.Unit, q[0], q[1], q[2], 100*spread, 100*em.Bound, note)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("spread over its bound: %v", over)
	}
	return nil
}
