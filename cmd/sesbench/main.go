// Command sesbench reproduces the evaluation of Cadonna, Gamper,
// Böhlen: "Sequenced Event Set Pattern Matching" (EDBT 2011,
// Section 5) on synthetic chemotherapy data and prints the series
// behind every table and figure:
//
//	Experiment 1  →  Figure 11 and Table 1
//	Experiment 2  →  Figure 12
//	Experiment 3  →  Figure 13
//	Ablations     →  A1 (filter breakdown), A2 (selection strategy)
//
// Usage:
//
//	sesbench [-exp all|1|2|3|ablation] [-profile tiny|small|paper]
//	         [-datasets N] [-maxsize N] [-seed N] [-json FILE]
//	         [-baseline FILE] [-tolerance F] [-debug-addr ADDR]
//	         [-cpuprofile FILE] [-memprofile FILE]
//
// With -json FILE the command instead measures a fixed benchmark
// suite with testing.Benchmark and writes a machine-readable baseline
// artifact (ns/op, B/op, allocs/op, maxΩ, match counts plus the
// environment, the regeneration command and the ns/op of a calibration
// workload that runs no repository code) to FILE — the file committed
// as BENCH_baseline.json at the repository root.
//
// With -baseline FILE the suite is measured and compared against the
// committed artifact: timing regressions beyond -tolerance (default
// 0.25 = +25%), judged relative to the calibration measured in each
// artifact, allocation regressions beyond it, or any drift in the correctness
// fingerprints (match count, maxΩ) fail the run with a non-zero exit —
// the CI bench gate. -json may be combined to also write the fresh
// measurement.
//
// -debug-addr starts the observability HTTP server (Prometheus
// /metrics, expvar, pprof) on the given address for profiling the
// benchmark process itself. -cpuprofile and -memprofile instead write
// runtime/pprof profiles covering the whole run to files (the CPU
// profile spans the run; the heap profile is written at exit after a
// final GC), for offline `go tool pprof` analysis of a batch run.
//
// The default "small" profile finishes in well under a minute; the
// "paper" profile approximates the original D1 (window size W ≈ 1322)
// and takes correspondingly longer, especially Experiment 3 without
// filtering (the paper's own runs reach ~1000 s there).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/bench"
	"repro/internal/chemo"
	"repro/internal/engine"
	"repro/internal/obs"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment to run: all, 1, 2, 3 or ablation")
		profile    = flag.String("profile", "small", "dataset profile: tiny, small or paper")
		datasets   = flag.Int("datasets", 5, "number of datasets D1..Dk (k in 1..5)")
		maxSize    = flag.Int("maxsize", 6, "largest |V1| for experiment 1 (2..6)")
		seed       = flag.Int64("seed", 0, "override the profile's PRNG seed (0 keeps it)")
		cap        = flag.Int("cap", 0, "abort any run whose simultaneous instances exceed N (0 = unlimited; prevents OOM on paper-scale D4/D5)")
		jsonFile   = flag.String("json", "", "write a benchmark baseline artifact to this file instead of running the experiments")
		baseline   = flag.String("baseline", "", "measure the artifact suite and gate it against this committed baseline file")
		tolerance  = flag.Float64("tolerance", 0.25, "allowed fractional regression in ns/op and allocs/op for -baseline (0.25 = +25%)")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. localhost:6060)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile covering the whole run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (after a final GC) to this file at exit")
	)
	flag.Parse()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sesbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "sesbench:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sesbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle retained heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "sesbench:", err)
			}
		}()
	}
	if *debugAddr != "" {
		srv, err := obs.ServeDebug(*debugAddr, obs.NewRegistry())
		if err != nil {
			fmt.Fprintln(os.Stderr, "sesbench:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("debug endpoints on http://%s/ (/metrics, /debug/pprof)\n", srv.Addr)
	}
	var err error
	switch {
	case *baseline != "":
		err = runGate(*baseline, *jsonFile, *profile, *datasets, *seed, *tolerance)
	case *jsonFile != "":
		err = runJSON(*jsonFile, *profile, *datasets, *seed)
	default:
		err = run(*exp, *profile, *datasets, *maxSize, *seed, *cap)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sesbench:", err)
		os.Exit(1)
	}
}

// runGate measures the artifact suite and fails if it regresses beyond
// tolerance against the committed baseline at basePath.
func runGate(basePath, jsonFile, profile string, datasets int, seed int64, tolerance float64) error {
	base, err := bench.LoadArtifact(basePath)
	if err != nil {
		return err
	}
	if base.Profile != "" && base.Profile != profile {
		fmt.Printf("note: baseline profile %q, measuring with %q — comparison may be meaningless\n", base.Profile, profile)
	}
	cfg, err := profileConfig(profile)
	if err != nil {
		return err
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	if datasets < 1 || datasets > 5 {
		return fmt.Errorf("-datasets must be in 1..5, got %d", datasets)
	}
	fmt.Printf("measuring %d-entry gate run (profile %s, seed %d, %d datasets) ...\n",
		len(base.Entries), profile, cfg.Seed, datasets)
	art, err := bench.BuildArtifact(cfg, profile, datasets)
	if err != nil {
		return err
	}
	if jsonFile != "" {
		b, err := art.MarshalIndent()
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonFile, b, 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("calibration %.0f ns/op, baseline's %.0f ns/op\n", art.CalibrationNs, base.CalibrationNs)
	problems := bench.Compare(base, art, tolerance)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "  regression:", p)
		}
		return fmt.Errorf("bench gate failed: %d violation(s) against %s", len(problems), basePath)
	}
	fmt.Printf("bench gate passed: %d entries within +%.0f%% of %s\n",
		len(art.Entries), 100*tolerance, basePath)
	return nil
}

// runJSON measures the artifact benchmark suite and writes the JSON
// baseline to path.
func runJSON(path, profile string, datasets int, seed int64) error {
	cfg, err := profileConfig(profile)
	if err != nil {
		return err
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	if datasets < 1 || datasets > 5 {
		return fmt.Errorf("-datasets must be in 1..5, got %d", datasets)
	}
	fmt.Printf("measuring baseline (profile %s, seed %d, %d datasets) ...\n", profile, cfg.Seed, datasets)
	art, err := bench.BuildArtifact(cfg, profile, datasets)
	if err != nil {
		return err
	}
	b, err := art.MarshalIndent()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d entries to %s\n", len(art.Entries), path)
	return nil
}

// profileConfig maps a -profile name to its dataset configuration.
func profileConfig(profile string) (chemo.Config, error) {
	switch profile {
	case "tiny":
		return chemo.Tiny(), nil
	case "small":
		return chemo.Small(), nil
	case "paper":
		return chemo.Paper(), nil
	}
	return chemo.Config{}, fmt.Errorf("unknown profile %q (use tiny, small or paper)", profile)
}

func run(exp, profile string, datasets, maxSize int, seed int64, cap int) error {
	cfg, err := profileConfig(profile)
	if err != nil {
		return err
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	if datasets < 1 || datasets > 5 {
		return fmt.Errorf("-datasets must be in 1..5, got %d", datasets)
	}
	if maxSize < 2 || maxSize > 6 {
		return fmt.Errorf("-maxsize must be in 2..6, got %d", maxSize)
	}

	fmt.Printf("generating datasets (profile %s, seed %d) ...\n", profile, cfg.Seed)
	ds, err := bench.MakeDatasets(cfg, datasets)
	if err != nil {
		return err
	}
	for _, d := range ds {
		fmt.Printf("  %s: %s\n", d.Name, chemo.Describe(d.Rel))
	}
	fmt.Println()

	var opts []engine.Option
	if cap > 0 {
		opts = append(opts, engine.WithMaxInstances(cap))
	}
	runAll := exp == "all"
	if runAll || exp == "1" {
		var sizes []int
		for s := 2; s <= maxSize; s++ {
			sizes = append(sizes, s)
		}
		rows, err := bench.RunExp1(ds[0], sizes, opts...)
		if err != nil {
			return err
		}
		fmt.Println(bench.Exp1Table(ds[0], rows))
		fmt.Println(bench.Exp1Figure(rows))
		fmt.Println(bench.Table1(rows))
	}
	if runAll || exp == "2" {
		rows, err := bench.RunExp2(ds, opts...)
		if err != nil {
			return err
		}
		fmt.Println(bench.Exp2Table(rows))
		fmt.Println(bench.Exp2Figure(rows))
	}
	if runAll || exp == "3" {
		rows, err := bench.RunExp3(ds, opts...)
		if err != nil {
			return err
		}
		fmt.Println(bench.Exp3Table(rows))
		fmt.Println(bench.Exp3Figure(rows))
	}
	if runAll || exp == "ablation" {
		frows, err := bench.RunAblationFilter(ds[:1])
		if err != nil {
			return err
		}
		fmt.Println(bench.AblationFilterTable(frows))
		const cap = 2_000_000
		srows, capped, err := bench.RunAblationStrategy(ds[:1], cap)
		if err != nil {
			return err
		}
		fmt.Println(bench.AblationStrategyTable(srows, capped, cap))
	}
	if !runAll && exp != "1" && exp != "2" && exp != "3" && exp != "ablation" {
		return fmt.Errorf("unknown experiment %q (use all, 1, 2, 3 or ablation)", exp)
	}
	return nil
}
