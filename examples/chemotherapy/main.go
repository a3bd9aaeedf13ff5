// Chemotherapy protocol audit: generate a synthetic ward history and
// verify that every CHOP-like treatment cycle followed the protocol —
// the motivating scenario of the paper (Cadonna, Gamper, Böhlen,
// EDBT 2011).
//
// The protocol prescribes Ciclofosfamide, Doxorubicina and a course of
// Prednisone — administered in any order, which is exactly what the
// PERMUTE event set expresses — followed by a blood count within
// eleven days. The audit counts complete protocol instances per
// patient and flags patients with missing follow-ups.
//
// Run with:
//
//	go run ./examples/chemotherapy
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro"
)

func main() {
	schema := ses.MustSchema(
		ses.Field{Name: "ID", Type: ses.TypeInt},
		ses.Field{Name: "L", Type: ses.TypeString},
		ses.Field{Name: "V", Type: ses.TypeFloat},
	)

	rel := buildWardHistory(schema)
	fmt.Printf("ward history: %d events\n\n", rel.Len())

	q, err := ses.Compile(`
		PATTERN PERMUTE(c, p+, d) THEN (b)
		WHERE c.L = 'C' AND d.L = 'D' AND p.L = 'P' AND b.L = 'B'
		  AND c.ID = p.ID AND c.ID = d.ID AND d.ID = b.ID
		WITHIN 264h`, schema)
	if err != nil {
		log.Fatal(err)
	}

	// Query Q1 reads "FOR EACH PATIENT, find ...": evaluate the pattern
	// per patient partition. (Running it on the interleaved relation is
	// possible but subtly different under skip-till-next-match: an
	// instance that binds p+ first has no ID join available yet and is
	// forced to consume the next P event even when it belongs to
	// another patient, killing the per-patient match. Partitioning by
	// the entity attribute — what the paper's "for each patient"
	// implies — avoids that.)
	matches, metrics, err := q.MatchPartitioned(rel, "ID", ses.WithFilter(true))
	if err != nil {
		log.Fatal(err)
	}

	// Aggregate complete protocol instances per patient. Overlapping
	// suffix substitutions share their blood count event with a longer
	// match; counting distinct blood counts yields the cycles.
	cycles := map[int64]map[int]bool{}
	for _, match := range matches {
		for _, b := range match.Bindings {
			if b.Var == "b" {
				pid := b.Events[0].Attrs[0].Int64() // ID is the first attribute
				if cycles[pid] == nil {
					cycles[pid] = map[int]bool{}
				}
				cycles[pid][b.Events[0].Seq] = true
			}
		}
	}

	fmt.Println("protocol audit (complete cycles = medication permutation + follow-up blood count):")
	for pid := int64(1); pid <= patients; pid++ {
		complete := len(cycles[pid])
		status := "OK"
		if complete < cyclesPerPatient {
			status = fmt.Sprintf("MISSING %d follow-up(s)", cyclesPerPatient-complete)
		}
		fmt.Printf("  patient %d: %d/%d cycles complete — %s\n",
			pid, complete, cyclesPerPatient, status)
	}
	fmt.Printf("\nengine metrics: %s\n", metrics)
}

const (
	patients         = 6
	cyclesPerPatient = 3
)

// buildWardHistory synthesises a small ward history: each patient
// receives cyclesPerPatient treatment cycles, 21 days apart, with the
// medication order shuffled per cycle (the real-world variation that
// motivates PERMUTE). Patient 4 skips the blood count of its last
// cycle, and patient 6 gets it too late — both must fail the audit.
func buildWardHistory(schema *ses.Schema) *ses.Relation {
	rng := rand.New(rand.NewSource(42))
	rel := ses.NewRelation(schema)
	base := time.Date(2010, time.March, 1, 0, 0, 0, 0, time.UTC).Unix()
	at := func(day int, hour, min int) ses.Time {
		return ses.Time(base + int64(day)*86400 + int64(hour)*3600 + int64(min)*60)
	}

	for pid := int64(1); pid <= patients; pid++ {
		start := rng.Intn(30)
		for cycle := 0; cycle < cyclesPerPatient; cycle++ {
			d0 := start + cycle*21
			// The administration order varies between cycles: shuffle
			// the three medication slots across the first two days.
			meds := []struct {
				l string
				v float64
			}{{"C", 1500}, {"D", 80}, {"P", 100}}
			rng.Shuffle(len(meds), func(i, j int) { meds[i], meds[j] = meds[j], meds[i] })
			for slot, m := range meds {
				rel.MustAppend(at(d0+slot/2, 9+slot, rng.Intn(60)),
					ses.Int(pid), ses.String(m.l), ses.Float(m.v))
			}
			// Additional Prednisone doses on days 2-4.
			for day := 2; day <= 4; day++ {
				rel.MustAppend(at(d0+day, 10, rng.Intn(60)),
					ses.Int(pid), ses.String("P"), ses.Float(100))
			}
			// Follow-up blood count on day 9 — with two protocol
			// violations: patient 4 skips the last one, patient 6 gets
			// the last one only after 15 days (outside the 264 h window).
			last := cycle == cyclesPerPatient-1
			switch {
			case pid == 4 && last:
				// no blood count at all
			case pid == 6 && last:
				rel.MustAppend(at(d0+15, 9, 0), ses.Int(pid), ses.String("B"), ses.Float(1))
			default:
				rel.MustAppend(at(d0+9, 9, rng.Intn(60)), ses.Int(pid), ses.String("B"), ses.Float(float64(rng.Intn(3))))
			}
			// Unrelated lab work (filtered out by the engine).
			for i := 0; i < 12; i++ {
				rel.MustAppend(at(d0+rng.Intn(12), 7+rng.Intn(10), rng.Intn(60)),
					ses.Int(pid), ses.String("LAB"), ses.Float(rng.Float64()*10))
			}
		}
	}
	rel.SortByTime()
	return rel
}
