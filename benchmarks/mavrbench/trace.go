package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// span is one timed call recorded by the traced run. Spans of one item
// share Item; Parent is the ID of the span that caused it (0 for a
// root). Start and End are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Item   int    `json:"item"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) dur() int64 { return s.End - s.Start }

// probeRoot names the root of spans the traced run adds to measure a
// layer the workload's own items do not reach. Probe trees are kept
// out of the item accounting.
const probeRoot = "probe"

// tracer keeps spans and work counters in memory until the run ends.
// A nil *tracer is the untraced run: every method is a no-op, so item
// code calls it unconditionally.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: make(map[string]float64)}
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, item, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, Item: item, ID: id, Parent: parent, Start: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do records fn as one span.
func (t *tracer) do(name string, item, parent int, fn func() error) error {
	id := t.begin(name, item, parent)
	err := fn()
	t.end(id)
	return err
}

// add accumulates a work counter.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// has reports whether any span is named name.
func (t *tracer) has(name string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			return true
		}
	}
	return false
}

// fork returns an empty tracer on the same clock, for probes.
func (t *tracer) fork() *tracer {
	return &tracer{t0: t.t0, counts: make(map[string]float64)}
}

// merge appends p's spans, renumbered, and takes p's counters for the
// names t has no count of: the workload's own counts win.
func (t *tracer) merge(p *tracer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	off := len(t.spans)
	for _, s := range p.spans {
		s.ID += off
		if s.Parent != 0 {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
	for k, v := range p.counts {
		if _, ok := t.counts[k]; !ok {
			t.counts[k] = v
		}
	}
}

// analysis is the per-span view of a finished trace.
type analysis struct {
	spans  []span
	self   []int64 // self time per span, indexed like spans
	probe  []bool  // span belongs to a probe tree
	counts map[string]float64
	// overhead is the traced run's root time over the untraced run's
	// time on the same items, minus one.
	overhead float64
}

// analyze computes self times: a span's duration minus the durations
// of its children, floored at zero. A child may lie outside its
// parent's interval — the traced run times the public calls a layer
// makes internally by repeating them on the same inputs next to it —
// so the subtraction uses durations rather than interval overlap.
func (t *tracer) analyze() *analysis {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := &analysis{
		spans:  append([]span(nil), t.spans...),
		self:   make([]int64, len(t.spans)),
		probe:  make([]bool, len(t.spans)),
		counts: make(map[string]float64, len(t.counts)),
	}
	for k, v := range t.counts {
		a.counts[k] = v
	}
	for i, s := range a.spans {
		a.self[i] = s.dur()
		if s.Parent == 0 {
			a.probe[i] = s.Name == probeRoot
		} else {
			// Parents are always opened before their children.
			a.probe[i] = a.probe[s.Parent-1]
		}
	}
	for _, s := range a.spans {
		if s.Parent != 0 {
			a.self[s.Parent-1] -= s.dur()
		}
	}
	for i := range a.self {
		if a.self[i] < 0 {
			a.self[i] = 0
		}
	}
	return a
}

// durations returns the durations (ms) of spans named name. Spans from
// the workload's own items are preferred; probe spans are used only
// when the items never made that call.
func (a *analysis) durations(name string) []float64 {
	return a.pick(name, func(i int) float64 { return float64(a.spans[i].dur()) / 1e6 })
}

// selfTimes is durations for self time.
func (a *analysis) selfTimes(name string) []float64 {
	return a.pick(name, func(i int) float64 { return float64(a.self[i]) / 1e6 })
}

func (a *analysis) pick(name string, val func(int) float64) []float64 {
	var items, probes []float64
	for i, s := range a.spans {
		if s.Name != name {
			continue
		}
		if a.probe[i] {
			probes = append(probes, val(i))
		} else {
			items = append(items, val(i))
		}
	}
	if len(items) > 0 {
		return items
	}
	return probes
}

// roots returns the item root spans (probe trees excluded).
func (a *analysis) roots() []int {
	var out []int
	for i, s := range a.spans {
		if s.Parent == 0 && !a.probe[i] {
			out = append(out, i)
		}
	}
	return out
}

// selfSumError compares, over all item trees, the sum of every span's
// self time with the sum of the root durations. The two agree exactly
// unless a repeated call took longer than the work it stands for
// (self time floored at zero), so the gap measures how well the
// children account for their parents.
func (a *analysis) selfSumError() float64 {
	var root, self int64
	for i, s := range a.spans {
		if a.probe[i] {
			continue
		}
		self += a.self[i]
		if s.Parent == 0 {
			root += s.dur()
		}
	}
	if root == 0 {
		return 0
	}
	d := float64(self-root) / float64(root)
	if d < 0 {
		d = -d
	}
	return d
}

// selfBreakdown renders, per span name, the total self time per item
// root and its share of all root time: where the item time goes.
func (a *analysis) selfBreakdown(workload string) []string {
	roots := a.roots()
	var rootTotal int64
	for _, i := range roots {
		rootTotal += a.spans[i].dur()
	}
	byName := map[string]int64{}
	var names []string
	for i, s := range a.spans {
		if a.probe[i] {
			continue
		}
		if _, ok := byName[s.Name]; !ok {
			names = append(names, s.Name)
		}
		byName[s.Name] += a.self[i]
	}
	var lines []string
	for _, n := range names {
		perItem := float64(byName[n]) / 1e6 / float64(max(len(roots), 1))
		share := 0.0
		if rootTotal > 0 {
			share = float64(byName[n]) / float64(rootTotal)
		}
		lines = append(lines, fmt.Sprintf("# %s self %-34s %10.4f ms/item %6.2f%%", workload, n, perItem, 100*share))
	}
	return lines
}

// writeSpans writes the spans as JSON lines.
func (t *tracer) writeSpans(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}
