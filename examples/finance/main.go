// Finance: detect multi-leg options strategies in a live order stream
// using channel-based evaluation — one of the financial-services use
// cases that motivate event pattern matching in the paper's
// introduction.
//
// A "collar" strategy consists of three legs that desks execute in
// any order (often split across venues): buying the underlying stock
// (possibly in several partial fills), buying a protective put and
// selling a covered call. A risk report must follow once the position
// is assembled. The legs' arbitrary execution order is exactly a
// PERMUTE event set; the report is the sequenced second set:
//
//	PATTERN PERMUTE(stock+, put, call) THEN (report) WITHIN 15m
//
// joined on the account. The whole tape is fed through one supervised
// channel keyed by account, and matches are consumed as they surface
// (the detector reports a strategy as soon as its risk report lands).
// Legs print with their positions in the tape.
//
// Run with:
//
//	go run ./examples/finance
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro"
)

func main() {
	schema := ses.MustSchema(
		ses.Field{Name: "Acct", Type: ses.TypeString},
		ses.Field{Name: "Kind", Type: ses.TypeString}, // BUY_STK, BUY_PUT, SELL_CALL, RISK_RPT, ...
		ses.Field{Name: "Qty", Type: ses.TypeInt},
	)

	q, err := ses.Compile(`
		PATTERN PERMUTE(stock+, put, call) THEN (report)
		WHERE stock.Kind = 'BUY_STK' AND put.Kind = 'BUY_PUT'
		  AND call.Kind = 'SELL_CALL' AND report.Kind = 'RISK_RPT'
		  AND stock.Acct = put.Acct AND put.Acct = call.Acct
		  AND call.Acct = report.Acct
		WITHIN 15m`, schema)
	if err != nil {
		log.Fatal(err)
	}

	// One stream keyed by account (the pattern joins on Acct, and keying
	// keeps the p+ leg from being force-fed another account's fills under
	// skip-till-next-match). Emit-on-accept: the desk wants the alert the
	// moment the risk report lands, not when the detection window closes.
	accounts := []string{"ACC-7", "ACC-9"}
	in := make(chan ses.Event, 16)
	out, sup, err := q.Supervise(context.Background(), in, ses.SuperviseConfig{},
		ses.WithPartitionKey("Acct"), ses.WithFilter(true), ses.WithEmitOnAccept(true))
	if err != nil {
		log.Fatal(err)
	}

	// Simulated tape: ACC-7 assembles a collar with three partial
	// stock fills (order: put, fills, call, fill); ACC-9 buys a put and
	// sells a call but never finishes the stock leg, so it must not
	// match. Unrelated flow is interleaved.
	rng := rand.New(rand.NewSource(7))
	t := ses.Time(1_000_000)
	tape := []struct {
		acct, kind string
		qty        int64
	}{
		{"ACC-7", "BUY_PUT", 10},
		{"ACC-9", "BUY_PUT", 5},
		{"ACC-7", "BUY_STK", 300},
		{"ACC-7", "QUOTE", 0},
		{"ACC-7", "BUY_STK", 400},
		{"ACC-9", "SELL_CALL", 5},
		{"ACC-7", "SELL_CALL", 10},
		{"ACC-7", "BUY_STK", 300},
		{"ACC-9", "QUOTE", 0},
		{"ACC-7", "RISK_RPT", 0},
		{"ACC-9", "RISK_RPT", 0}, // no stock leg: incomplete, no match
	}
	go func() {
		for _, rec := range tape {
			t += ses.Time(10 + rng.Intn(30)) // seconds between prints
			in <- ses.Event{Time: t, Attrs: []ses.Value{
				ses.String(rec.acct), ses.String(rec.kind), ses.Int(rec.qty),
			}}
		}
		close(in)
	}()

	fmt.Println("collar detector running ...")
	found := map[string]int{}
	for m := range out {
		acct := m.Bindings[0].Events[0].Attrs[0].Str()
		found[acct]++
		var fills int64
		for _, b := range m.Bindings {
			if b.Var == "stock" {
				for _, e := range b.Events {
					fills += e.Attrs[2].Int64()
				}
			}
		}
		fmt.Printf("  %s: collar assembled in %ds — %d stock fill(s) totalling %d shares, legs %s\n",
			acct, m.Last-m.First, len(m.Bindings[0].Events), fills, m)
	}
	if err := sup.Err(); err != nil {
		log.Fatal(err)
	}
	for _, acct := range accounts {
		if found[acct] == 0 {
			fmt.Printf("  %s: no complete collar (as expected for the incomplete leg set)\n", acct)
		}
	}
}
