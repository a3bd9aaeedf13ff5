// Package obs is a zero-dependency observability toolkit for the SES
// runtime: a metrics registry of counters, gauges and histograms with
// Prometheus text exposition and expvar export, plus HTTP wiring for
// /metrics and the standard profiling endpoints.
//
// The package is deliberately free of third-party dependencies so the
// engine can link it unconditionally; all instrumentation in hot paths
// is behind nil checks, and metric reads/writes are single atomic
// operations, safe for concurrent use.
//
// # Naming
//
// Metric names follow the Prometheus conventions (snake_case with a
// ses_ prefix and unit/_total suffixes). A name may carry a label
// block, e.g.
//
//	ses_shard_queue_depth{shard="3"}
//
// Series sharing a base name are grouped under one # HELP/# TYPE
// header in the exposition.
package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for Prometheus semantics).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous integer value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// SetMax raises the gauge to n if n exceeds the current value
// (lock-free running maximum).
func (g *Gauge) SetMax(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// style: Observe(v) increments every bucket whose upper bound is >= v
// at exposition time (buckets store per-bucket counts internally and
// cumulate on render). The +Inf bucket is implicit.
type Histogram struct {
	bounds []float64      // sorted upper bounds, exclusive of +Inf
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	count  atomic.Int64
	sum    atomic.Int64 // sum scaled by sumScale for float accumulation
}

// sumScale fixes the histogram sum's fixed-point resolution (micro
// units): atomic float addition without a mutex.
const sumScale = 1e6

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(v * sumScale))
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 { return float64(h.sum.Load()) / sumScale }

// metricKind enumerates the exposition types.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// metric is one registered series.
type metric struct {
	name string // full series name, possibly with a {label} block
	base string // name sans label block
	help string
	kind metricKind

	counter *Counter
	gauge   *Gauge
	fn      func() int64
	hist    *Histogram
}

// Registry holds named metrics and renders them in the Prometheus text
// exposition format. The zero value is not usable; create registries
// with NewRegistry. All methods are safe for concurrent use;
// registration of an already-registered name returns the existing
// metric (or replaces the sampling function for gauge funcs), so
// idempotent re-registration across executor restarts is cheap.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	order   []string
}

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// baseName strips a {label="..."} block from a series name.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// seriesLabels returns the label block of a series name without the
// surrounding braces, or "" for an unlabeled name.
func seriesLabels(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[i+1 : len(name)-1]
	}
	return ""
}

// labelEscaper escapes label values per the Prometheus text format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// SeriesName composes a metric series name from a base name and label
// key/value pairs:
//
//	SeriesName("ses_shard_queue_depth", "query", "q1", "shard", "0")
//	→ `ses_shard_queue_depth{query="q1",shard="0"}`
//
// With no pairs the base name is returned unchanged. Values are
// escaped per the Prometheus text exposition format. Series that share
// a base name are grouped under one # HELP/# TYPE header, which is how
// concurrent executors (e.g. the queries of a multi-query server) keep
// their instruments apart inside one registry.
func SeriesName(base string, kv ...string) string {
	if len(kv) == 0 {
		return base
	}
	if len(kv)%2 != 0 {
		panic("obs: SeriesName needs an even number of key/value strings")
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// register adds m under its name unless a metric of the same name and
// kind exists, which is returned instead. A name collision across
// kinds panics: it is a programming error, not an operational state.
func (r *Registry) register(m *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.metrics[m.name]; ok {
		if old.kind != m.kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", m.name, m.kind, old.kind))
		}
		if m.kind == kindGaugeFunc {
			old.fn = m.fn // rebind the sampler, e.g. to a new executor run
		}
		return old
	}
	r.metrics[m.name] = m
	r.order = append(r.order, m.name)
	return m
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.register(&metric{name: name, base: baseName(name), help: help, kind: kindCounter, counter: &Counter{}})
	return m.counter
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.register(&metric{name: name, base: baseName(name), help: help, kind: kindGauge, gauge: &Gauge{}})
	return m.gauge
}

// GaugeFunc registers a gauge sampled by calling fn at exposition
// time — the zero-hot-path-cost way to expose instantaneous state
// such as channel occupancy. Re-registering a name rebinds fn.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.register(&metric{name: name, base: baseName(name), help: help, kind: kindGaugeFunc, fn: fn})
}

// Histogram returns the named histogram with the given bucket upper
// bounds (sorted ascending; +Inf is implicit), creating it on first
// use. A name may carry a label block (see SeriesName); the labels are
// merged with the per-bucket le label in the exposition.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	h := &Histogram{bounds: append([]float64(nil), buckets...)}
	sort.Float64s(h.bounds)
	h.counts = make([]atomic.Int64, len(h.bounds)+1)
	m := r.register(&metric{name: name, base: baseName(name), help: help, kind: kindHistogram, hist: h})
	return m.hist
}

// UnregisterMatching removes every series whose full name (including
// the label block) satisfies pred, returning the number removed. It is
// how the serving layer retires all series labeled with a removed
// query's id in one sweep. Handles previously returned by
// Counter/Gauge/Histogram keep working but are no longer exported.
func (r *Registry) UnregisterMatching(pred func(name string) bool) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	keep := r.order[:0]
	for _, name := range r.order {
		if pred(name) {
			delete(r.metrics, name)
			n++
			continue
		}
		keep = append(keep, name)
	}
	r.order = keep
	return n
}

// snapshot returns the registered metrics grouped by base name in
// registration order of the first series of each base.
func (r *Registry) snapshot() [][]*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	byBase := make(map[string][]*metric)
	var bases []string
	for _, name := range r.order {
		m := r.metrics[name]
		if _, ok := byBase[m.base]; !ok {
			bases = append(bases, m.base)
		}
		byBase[m.base] = append(byBase[m.base], m)
	}
	out := make([][]*metric, len(bases))
	for i, b := range bases {
		out[i] = byBase[b]
	}
	return out
}

// WritePrometheus renders all metrics in the Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, group := range r.snapshot() {
		head := group[0]
		if head.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", head.base, head.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", head.base, head.kind); err != nil {
			return err
		}
		for _, m := range group {
			if err := writeSeries(w, m); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, m *metric) error {
	switch m.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s %d\n", m.name, m.counter.Value())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s %d\n", m.name, m.gauge.Value())
		return err
	case kindGaugeFunc:
		_, err := fmt.Fprintf(w, "%s %d\n", m.name, m.fn())
		return err
	case kindHistogram:
		h := m.hist
		labels := seriesLabels(m.name)
		// Histogram sub-series merge the series' own labels with the
		// per-bucket le label: base_bucket{labels,le="..."}.
		bucket := func(le string) string {
			if labels == "" {
				return fmt.Sprintf("%s_bucket{le=%q}", m.base, le)
			}
			return fmt.Sprintf("%s_bucket{%s,le=%q}", m.base, labels, le)
		}
		suffixed := func(sfx string) string {
			if labels == "" {
				return m.base + sfx
			}
			return m.base + sfx + "{" + labels + "}"
		}
		cum := int64(0)
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			if _, err := fmt.Fprintf(w, "%s %d\n", bucket(formatBound(bound)), cum); err != nil {
				return err
			}
		}
		cum += h.counts[len(h.bounds)].Load()
		if _, err := fmt.Fprintf(w, "%s %d\n", bucket("+Inf"), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %g\n", suffixed("_sum"), h.Sum()); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s %d\n", suffixed("_count"), h.Count())
		return err
	}
	return nil
}

// formatBound renders a bucket bound the way Prometheus clients do
// (integral bounds without a trailing .0 are fine in the text format).
func formatBound(b float64) string {
	if b == math.Trunc(b) && math.Abs(b) < 1e15 {
		return fmt.Sprintf("%d", int64(b))
	}
	return fmt.Sprintf("%g", b)
}

// Value returns the current value of the named counter or gauge series
// (sampling gauge funcs), and whether the series exists. Histograms
// report their sample count.
func (r *Registry) Value(name string) (int64, bool) {
	r.mu.Lock()
	m, ok := r.metrics[name]
	r.mu.Unlock()
	if !ok {
		return 0, false
	}
	switch m.kind {
	case kindCounter:
		return m.counter.Value(), true
	case kindGauge:
		return m.gauge.Value(), true
	case kindGaugeFunc:
		return m.fn(), true
	case kindHistogram:
		return m.hist.Count(), true
	}
	return 0, false
}

// expvarValue renders the registry as a plain name→value map for
// expvar consumers.
func (r *Registry) expvarValue() interface{} {
	out := make(map[string]interface{})
	for _, group := range r.snapshot() {
		for _, m := range group {
			switch m.kind {
			case kindCounter:
				out[m.name] = m.counter.Value()
			case kindGauge:
				out[m.name] = m.gauge.Value()
			case kindGaugeFunc:
				out[m.name] = m.fn()
			case kindHistogram:
				out[m.name] = map[string]interface{}{"count": m.hist.Count(), "sum": m.hist.Sum()}
			}
		}
	}
	return out
}

// PublishExpvar exposes the registry as one expvar variable under the
// given name (a JSON object of series name → value, visible on
// /debug/vars). Publishing the same name twice is a no-op rather than
// the panic expvar.Publish raises, so tests and restarted executors
// can share a process.
func PublishExpvar(name string, r *Registry) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() interface{} { return r.expvarValue() }))
}
