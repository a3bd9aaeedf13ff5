package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/paperdata"
)

// writeFixture saves the paper's Figure 1 relation as CSV and returns
// its path.
func writeFixture(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "events.csv")
	if err := ses.SaveCSVFile(path, paperdata.Relation()); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunQueryOverCSV(t *testing.T) {
	path := writeFixture(t)
	dot := filepath.Join(t.TempDir(), "a.dot")
	err := run(options{queryText: paperdata.QueryQ1Text, filter: true, metrics: true,
		analyze: true, dotFile: dot, verbose: true, args: []string{path}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "doublecircle") {
		t.Errorf("DOT file content suspicious")
	}
}

func TestRunTraceAndDebugAddr(t *testing.T) {
	path := writeFixture(t)
	traceOut := filepath.Join(t.TempDir(), "trace.jsonl")
	err := run(options{queryText: paperdata.QueryQ1Text, filter: true,
		traceFile: traceOut, debugAddr: "127.0.0.1:0", args: []string{path}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) < 2 {
		t.Fatalf("trace has %d lines, want several lifecycle events", len(lines))
	}
	var kinds []string
	for _, ln := range lines {
		for _, k := range []string{"spawn", "transition", "expire", "match"} {
			if strings.Contains(ln, `"kind":"`+k+`"`) {
				kinds = append(kinds, k)
			}
		}
	}
	joined := strings.Join(kinds, ",")
	for _, k := range []string{"spawn", "transition", "match"} {
		if !strings.Contains(joined, k) {
			t.Errorf("trace lacks %q records:\n%s", k, string(b))
		}
	}
}

func TestRunQueryFromFile(t *testing.T) {
	path := writeFixture(t)
	qf := filepath.Join(t.TempDir(), "q.ses")
	if err := os.WriteFile(qf, []byte(paperdata.QueryQ1Text), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(options{queryFile: qf, maximal: true, limit: 1, args: []string{path}}); err != nil {
		t.Fatal(err)
	}
}

func TestRunArgumentErrors(t *testing.T) {
	path := writeFixture(t)
	cases := []struct {
		name string
		frag string
		o    options
	}{
		{"no query", "required", options{args: []string{path}}},
		{"both query sources", "mutually exclusive", options{queryText: "x", queryFile: "y", args: []string{path}}},
		{"missing query file", "", options{queryFile: "/nonexistent.ses", args: []string{path}}},
		{"no input", "exactly one input", options{queryText: paperdata.QueryQ1Text}},
		{"missing input", "", options{queryText: paperdata.QueryQ1Text, args: []string{"/nope.csv"}}},
		{"bad query", "query:", options{queryText: "PATTERN", args: []string{path}}},
		{"bad dot path", "", options{queryText: paperdata.QueryQ1Text, dotFile: "/nonexistent/dir/a.dot", args: []string{path}}},
		{"resume without checkpoint", "-resume requires", options{queryText: paperdata.QueryQ1Text, resume: true, args: []string{path}}},
		{"checkpoint with partition", "mutually exclusive", options{queryText: paperdata.QueryQ1Text,
			checkpoint: "c.ckpt", partition: "ID", args: []string{path}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := run(c.o)
			if err == nil {
				t.Fatalf("expected error")
			}
			if c.frag != "" && !strings.Contains(err.Error(), c.frag) {
				t.Errorf("error = %v, want containing %q", err, c.frag)
			}
		})
	}
}

func TestRunSortOption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "unsorted.csv")
	csv := "T:time,ID:int,L:string,V:float,U:string\n10,1,B,0,x\n5,1,C,0,x\n"
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	q := "PATTERN (c) WHERE c.L = 'C' WITHIN 1h"
	if err := run(options{queryText: q, args: []string{path}}); err == nil {
		t.Errorf("unsorted input should fail without -sort")
	}
	if err := run(options{queryText: q, sortInput: true, args: []string{path}}); err != nil {
		t.Errorf("-sort should accept unsorted input: %v", err)
	}
}

func TestRunPartitioned(t *testing.T) {
	path := writeFixture(t)
	if err := run(options{queryText: paperdata.QueryQ1Text, filter: true, partition: "ID", args: []string{path}}); err != nil {
		t.Fatal(err)
	}
	if err := run(options{queryText: paperdata.QueryQ1Text, partition: "NOPE", args: []string{path}}); err == nil {
		t.Errorf("unknown partition attribute accepted")
	}
}

func TestRunJSONOutput(t *testing.T) {
	path := writeFixture(t)
	if err := run(options{queryText: paperdata.QueryQ1Text, filter: true, asJSON: true, args: []string{path}}); err != nil {
		t.Fatal(err)
	}
}

// TestRunCheckpointed: a checkpointing run succeeds, leaves a
// restorable snapshot behind, and a -resume run over the final
// snapshot replays only the flush.
func TestRunCheckpointed(t *testing.T) {
	path := writeFixture(t)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	if err := run(options{queryText: paperdata.QueryQ1Text, metrics: true,
		checkpoint: ckpt, checkpointEvery: 3, args: []string{path}}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	// Resuming from the completed run's snapshot consumes no further
	// events and must not fail.
	if err := run(options{queryText: paperdata.QueryQ1Text,
		checkpoint: ckpt, resume: true, args: []string{path}}); err != nil {
		t.Fatal(err)
	}
	// Resuming against a shorter input than the checkpoint consumed is
	// an error, not silent corruption.
	short := filepath.Join(t.TempDir(), "short.csv")
	rel := paperdata.Relation()
	half := ses.NewRelation(rel.Schema())
	for i := 0; i < 2; i++ {
		e := rel.Event(i)
		half.MustAppend(e.Time, e.Attrs...)
	}
	if err := ses.SaveCSVFile(short, half); err != nil {
		t.Fatal(err)
	}
	err := run(options{queryText: paperdata.QueryQ1Text, checkpoint: ckpt, resume: true, args: []string{short}})
	if err == nil || !strings.Contains(err.Error(), "consumed") {
		t.Errorf("resume over truncated input: err = %v", err)
	}
}

// TestRunResumeEquivalence: interrupting an evaluation at a checkpoint
// and resuming emits exactly the matches the uninterrupted run emits
// after that point.
func TestRunResumeEquivalence(t *testing.T) {
	relation := paperdata.Relation()
	q, err := ses.Compile(paperdata.QueryQ1Text, relation.Schema())
	if err != nil {
		t.Fatal(err)
	}

	// Uninterrupted reference run.
	var full []string
	r := q.Runner()
	for i := 0; i < relation.Len(); i++ {
		ms, err := r.Step(relation.Event(i))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			full = append(full, m.String())
		}
	}
	for _, m := range r.Flush() {
		full = append(full, m.String())
	}

	// Crashed run: consume half the input, checkpoint, abandon.
	cut := relation.Len() / 2
	r2 := q.Runner()
	var before []string
	for i := 0; i < cut; i++ {
		ms, err := r2.Step(relation.Event(i))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			before = append(before, m.String())
		}
	}
	ckpt := filepath.Join(t.TempDir(), "crash.ckpt")
	f, err := os.Create(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Resumed run over the same CSV via the command path.
	path := writeFixture(t)
	var after []string
	{
		r3, err := func() (*ses.Runner, error) {
			fh, err := os.Open(ckpt)
			if err != nil {
				return nil, err
			}
			defer fh.Close()
			return q.RestoreRunner(fh)
		}()
		if err != nil {
			t.Fatal(err)
		}
		for i := int(r3.Metrics().EventsProcessed); i < relation.Len(); i++ {
			ms, err := r3.Step(relation.Event(i))
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range ms {
				after = append(after, m.String())
			}
		}
		for _, m := range r3.Flush() {
			after = append(after, m.String())
		}
	}
	combined := append(append([]string{}, before...), after...)
	if strings.Join(combined, "\n") != strings.Join(full, "\n") {
		t.Errorf("resumed run diverges:\nfull:     %v\ncombined: %v", full, combined)
	}
	// And the command-level resume path over the same checkpoint runs
	// cleanly end to end.
	if err := run(options{queryText: paperdata.QueryQ1Text, checkpoint: ckpt, resume: true, args: []string{path}}); err != nil {
		t.Fatal(err)
	}
}

// TestRunSupervisedMatchesPlain: the -checkpoint path emits a plain
// run's matches, and a -resume run, from the supervisor's checkpoint
// envelope or from a bare Runner.WriteSnapshot file, skips exactly the
// events the checkpoint covers: the matches completed before the cut
// and those the resumed run emits are together the plain run's.
func TestRunSupervisedMatchesPlain(t *testing.T) {
	rel := paperdata.Relation()
	q, err := ses.Compile(paperdata.QueryQ1Text, rel.Schema())
	if err != nil {
		t.Fatal(err)
	}
	render := func(ms []ses.Match) string {
		var b strings.Builder
		for _, m := range ms {
			b.WriteString(m.String() + "\n")
		}
		return b.String()
	}
	plain, _, err := q.Match(rel)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	got, _, err := runSupervised(q, rel, options{checkpoint: filepath.Join(dir, "full.ckpt"), checkpointEvery: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) == 0 || render(got) != render(plain) {
		t.Fatalf("-checkpoint run:\n%swant the plain run's:\n%s", render(got), render(plain))
	}

	// Cut the input in half: step the first half by hand for the
	// matches completed before the cut, and checkpoint it both ways.
	cut := rel.Len() / 2
	half := ses.NewRelation(rel.Schema())
	r := q.Runner()
	var before []ses.Match
	for i := 0; i < cut; i++ {
		half.MustAppend(rel.Event(i).Time, rel.Event(i).Attrs...)
		ms, err := r.Step(rel.Event(i))
		if err != nil {
			t.Fatal(err)
		}
		before = append(before, ms...)
	}
	bare := filepath.Join(dir, "bare.ckpt")
	f, err := os.Create(bare)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	envelope := filepath.Join(dir, "envelope.ckpt")
	if _, _, err := runSupervised(q, half, options{checkpoint: envelope, checkpointEvery: 5}, nil); err != nil {
		t.Fatal(err)
	}
	for name, path := range map[string]string{"envelope": envelope, "bare snapshot": bare} {
		after, _, err := runSupervised(q, rel, options{checkpoint: path, resume: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if combined := append(append([]ses.Match{}, before...), after...); render(combined) != render(plain) {
			t.Errorf("resume from the %s: before the cut and after it:\n%swant the plain run's:\n%s", name, render(combined), render(plain))
		}
	}
}
