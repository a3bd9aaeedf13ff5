// Command benchmark is the repository's benchmark: it stands the
// serving stack up in-process on loopback ports, drives one workload
// through it over HTTP, checks the served output against the library
// and prints every metric by name. See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// hardDeadline ends a run that no stage deadline caught.
const hardDeadline = 170 * time.Second

// scratchRoot holds WAL scratch and span files; .gitignore names it.
const scratchRoot = ".bench_build"

func main() { os.Exit(realMain()) }

func realMain() int {
	name := flag.String("workload", "q1_noise", "workload to run")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 10, "how long one run measures")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	spans := flag.String("spans", "", "file the traced run writes its spans to (default under "+scratchRoot+")")
	repeat := flag.Int("repeat", 0, "run every workload this many times, each with another seed, and report the spread")
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// An interrupt cancels the stages, so scratch is removed and child
	// processes stop on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *repeat > 0 {
		if err := repeatSets(ctx, *repeat, *seed, *seconds); err != nil {
			return fail(err)
		}
		return 0
	}
	w, err := findWorkload(*name)
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return fail(err)
	}
	scratch, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(scratch)
	opt := options{w: w, seed: *seed, seconds: *seconds, trace: *trace != 0, scale: 1, setups: 3, paced: true,
		scratch: scratch, spans: *spans, out: os.Stdout}
	if opt.trace {
		opt.setups = 1 // setup_s belongs to the untraced run
		if opt.spans == "" {
			opt.spans = fmt.Sprintf("%s/spans-%s-%d.json", scratchRoot, w.name, *seed)
		}
	}
	b := newHarness(opt)
	watchdog := time.AfterFunc(hardDeadline, func() {
		fmt.Fprintf(os.Stderr, "benchmark: no result after %s, in stage %s\n", hardDeadline, b.stage.Load())
		os.RemoveAll(scratch)
		os.Exit(3)
	})
	defer watchdog.Stop()
	res, err := b.run(ctx)
	if err != nil {
		return fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}
