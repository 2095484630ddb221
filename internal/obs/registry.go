// Package obs is swimd's dependency-free observability layer: a
// concurrent metrics registry rendered in the Prometheus text format, a
// per-request trace carried through context.Context with lightweight
// spans, and a bounded ring of recent requests (the slow-query log).
//
// The registry's histograms reuse the binning discipline of
// stats.LogHistogram — a fixed number of bins per base-10 decade over a
// configured exponent range — but observe lock-free: bucket counts are
// atomic words and the running sum is a CAS loop over float64 bits, so
// request paths never contend on a mutex and a concurrent scrape sees a
// consistent-enough snapshot (bucket totals may trail the count by
// in-flight observations, never exceed it).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// A Sample is one rendered metric value: an ordered label set and the
// value. Collector functions return these for families whose children
// only exist at scrape time (per-trace storage gauges).
type Sample struct {
	Labels []Label
	Value  float64
}

// Label is one name="value" pair.
type Label struct {
	Name, Value string
}

// L is shorthand for building a label list in place.
func L(pairs ...string) []Label {
	if len(pairs)%2 != 0 {
		panic("obs: L needs name/value pairs")
	}
	out := make([]Label, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, Label{Name: pairs[i], Value: pairs[i+1]})
	}
	return out
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// addFloat CAS-adds d to the float64 stored in bits.
func addFloat(bits *atomic.Uint64, d float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Histogram is a lock-free latency/size histogram with log-spaced
// buckets: binsPerDecade bins per base-10 decade covering
// [10^minExp, 10^maxExp), the stats.LogHistogram layout. Observations
// at or below zero land in the first bucket's count (they are smaller
// than every upper edge, so cumulative rendering stays exact); values
// outside the range clamp to the edge buckets so totals always add up.
type Histogram struct {
	binsPerDecade int
	minExp        float64
	buckets       []atomic.Uint64
	count         atomic.Uint64
	sumBits       atomic.Uint64
}

func newHistogram(binsPerDecade int, minExp, maxExp float64) *Histogram {
	if binsPerDecade < 1 {
		panic("obs: binsPerDecade must be >= 1")
	}
	if maxExp <= minExp {
		panic("obs: maxExp must exceed minExp")
	}
	n := int(math.Ceil((maxExp - minExp) * float64(binsPerDecade)))
	return &Histogram{
		binsPerDecade: binsPerDecade,
		minExp:        minExp,
		buckets:       make([]atomic.Uint64, n),
	}
}

// Observe adds one observation.
func (h *Histogram) Observe(v float64) {
	idx := 0
	if v > 0 {
		idx = int(math.Floor((math.Log10(v) - h.minExp) * float64(h.binsPerDecade)))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(h.buckets) {
			idx = len(h.buckets) - 1
		}
	}
	h.buckets[idx].Add(1)
	addFloat(&h.sumBits, v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// upperEdge returns bucket i's inclusive upper bound (its le label).
func (h *Histogram) upperEdge(i int) float64 {
	return math.Pow(10, h.minExp+float64(i+1)/float64(h.binsPerDecade))
}

// metricKind is the Prometheus TYPE of a family.
type metricKind string

// The three family types the registry renders.
const (
	KindCounter   metricKind = "counter"
	KindGauge     metricKind = "gauge"
	KindHistogram metricKind = "histogram"
)

// vecSep joins label values into child-map keys; label values are
// arbitrary strings, so the separator is a byte they cannot contain
// after escaping is not applied — 0x00 never appears in header-derived
// or name-derived label values.
const vecSep = "\x00"

// CounterVec is a family of counters keyed by a fixed label set.
type CounterVec struct {
	labels   []string
	mu       sync.RWMutex
	children map[string]*Counter
}

// With returns (creating on first use) the child counter for the given
// label values, which must match the declared label names in count.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: CounterVec wants %d label values, got %d", len(v.labels), len(values)))
	}
	key := strings.Join(values, vecSep)
	v.mu.RLock()
	c, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok = v.children[key]; ok {
		return c
	}
	c = &Counter{}
	v.children[key] = c
	return c
}

// Snapshot returns the current child values keyed by their label
// values (joined with "|" for readability in stats payloads).
func (v *CounterVec) Snapshot() map[string]uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[string]uint64, len(v.children))
	for key, c := range v.children {
		out[strings.ReplaceAll(key, vecSep, "|")] = c.Value()
	}
	return out
}

// HistogramVec is a family of histograms sharing one bucket layout,
// keyed by a fixed label set.
type HistogramVec struct {
	labels        []string
	binsPerDecade int
	minExp        float64
	maxExp        float64
	mu            sync.RWMutex
	children      map[string]*Histogram
}

// With returns (creating on first use) the child histogram for the
// given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: HistogramVec wants %d label values, got %d", len(v.labels), len(values)))
	}
	key := strings.Join(values, vecSep)
	v.mu.RLock()
	h, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok = v.children[key]; ok {
		return h
	}
	h = newHistogram(v.binsPerDecade, v.minExp, v.maxExp)
	v.children[key] = h
	return h
}

// Snapshot returns per-child (count, sum) keyed by label values.
func (v *HistogramVec) Snapshot() map[string]HistogramSummary {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[string]HistogramSummary, len(v.children))
	for key, h := range v.children {
		out[strings.ReplaceAll(key, vecSep, "|")] = HistogramSummary{Count: h.Count(), Sum: h.Sum()}
	}
	return out
}

// HistogramSummary is a histogram's scalar pair for JSON stats.
type HistogramSummary struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
}

// family is one registered metric family: a static instrument or a
// scrape-time collector.
type family struct {
	name string
	help string
	kind metricKind

	counter    *Counter
	counterVec *CounterVec
	histVec    *HistogramVec
	collect    func() []Sample
}

// Registry holds metric families and renders them as Prometheus text.
// Registration happens at construction time (it panics on duplicate or
// invalid names — programmer errors); observation and rendering are
// safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) add(f *family) {
	if !validMetricName(f.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", f.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", f.name))
	}
	r.families[f.name] = f
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.add(&family{name: name, help: help, kind: KindCounter, counter: c})
	return c
}

// CounterVec registers and returns a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic("obs: CounterVec needs at least one label")
	}
	v := &CounterVec{labels: labels, children: make(map[string]*Counter)}
	r.add(&family{name: name, help: help, kind: KindCounter, counterVec: v})
	return v
}

// HistogramVec registers and returns a labeled family of log-bucket
// histograms, each covering [10^minExp, 10^maxExp) at binsPerDecade
// resolution.
func (r *Registry) HistogramVec(name, help string, binsPerDecade int, minExp, maxExp float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic("obs: HistogramVec needs at least one label")
	}
	v := &HistogramVec{
		labels:        labels,
		binsPerDecade: binsPerDecade,
		minExp:        minExp,
		maxExp:        maxExp,
		children:      make(map[string]*Histogram),
	}
	r.add(&family{name: name, help: help, kind: KindHistogram, histVec: v})
	return v
}

// RegisterFunc registers a scrape-time collector: fn is called on every
// render and its samples become the family's children. kind must be
// KindCounter or KindGauge (histogram collectors would need full bucket
// layouts; nothing needs them).
func (r *Registry) RegisterFunc(name, help string, kind metricKind, fn func() []Sample) {
	if kind != KindCounter && kind != KindGauge {
		panic("obs: RegisterFunc supports counter and gauge kinds only")
	}
	r.add(&family{name: name, help: help, kind: kind, collect: fn})
}

// WritePrometheus renders every family in the text exposition format
// (version 0.0.4), families sorted by name and children by label set,
// so output is deterministic for tests and diffs.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, k int) bool { return fams[i].name < fams[k].name })

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		switch {
		case f.counter != nil:
			writeSample(&b, f.name, nil, float64(f.counter.Value()))
		case f.counterVec != nil:
			writeVec(&b, f.name, f.counterVec)
		case f.histVec != nil:
			writeHistVec(&b, f.name, f.histVec)
		case f.collect != nil:
			samples := f.collect()
			sort.Slice(samples, func(i, k int) bool {
				return labelString(samples[i].Labels) < labelString(samples[k].Labels)
			})
			for _, s := range samples {
				writeSample(&b, f.name, s.Labels, s.Value)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeVec(b *strings.Builder, name string, v *CounterVec) {
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for key := range v.children {
		keys = append(keys, key)
	}
	v.mu.RUnlock()
	sort.Strings(keys)
	for _, key := range keys {
		v.mu.RLock()
		c := v.children[key]
		v.mu.RUnlock()
		writeSample(b, name, vecLabels(v.labels, key), float64(c.Value()))
	}
}

func writeHistVec(b *strings.Builder, name string, v *HistogramVec) {
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for key := range v.children {
		keys = append(keys, key)
	}
	v.mu.RUnlock()
	sort.Strings(keys)
	for _, key := range keys {
		v.mu.RLock()
		h := v.children[key]
		v.mu.RUnlock()
		writeHistogram(b, name, vecLabels(v.labels, key), h)
	}
}

// writeHistogram renders one histogram's cumulative buckets, sum, and
// count. Bucket counts are read once into a local snapshot so the
// cumulative series is monotone even under concurrent observation; the
// +Inf bucket is the snapshot total, and count/sum are read after the
// buckets so a parser's count >= +Inf invariant holds (Observe bumps
// buckets before count).
func writeHistogram(b *strings.Builder, name string, labels []Label, h *Histogram) {
	counts := make([]uint64, len(h.buckets))
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		le := append(append([]Label(nil), labels...), Label{Name: "le", Value: formatFloat(h.upperEdge(i))})
		writeSample(b, name+"_bucket", le, float64(cum))
	}
	inf := append(append([]Label(nil), labels...), Label{Name: "le", Value: "+Inf"})
	writeSample(b, name+"_bucket", inf, float64(total))
	writeSample(b, name+"_sum", labels, h.Sum())
	writeSample(b, name+"_count", labels, float64(total))
}

func vecLabels(names []string, key string) []Label {
	values := strings.Split(key, vecSep)
	out := make([]Label, len(names))
	for i, n := range names {
		out[i] = Label{Name: n, Value: values[i]}
	}
	return out
}

func writeSample(b *strings.Builder, name string, labels []Label, v float64) {
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Name)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(l.Value))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

func labelString(labels []Label) string {
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Name + "=" + l.Value
	}
	return strings.Join(parts, ",")
}

// formatFloat renders a value the way Prometheus expects: integers
// without an exponent or decimal point, everything else in shortest
// round-trip form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
