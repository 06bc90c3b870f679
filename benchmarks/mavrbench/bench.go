package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// instance is one set-up workload, ready to run items.
type instance interface {
	// item runs item k of client c, numbered id across clients, and
	// checks its output. Genuine work is traced as children of root.
	// With a tracer, item may return a function recording the repeated
	// internal calls; it runs after root ends, so root times exactly
	// what the untraced run times.
	item(c, k, id int, tr *tracer, root int) (after func() error, err error)
	// finish runs the checks that need the whole run, after timing.
	finish(tr *tracer) []error
	close()
}

// workload is one benchmark input set and its traffic shape.
type workload struct {
	name string
	// root names the span of one item.
	root string
	// clients is the number of closed-loop clients, each a goroutine
	// that sends its next item when the previous one completes.
	clients int
	// tail is the percentile reported as item_ms_tail: the highest one
	// (tailPercentile) that keeps ten samples beyond it at the item
	// count a run reaches on a 2-core host.
	tail float64
	// traced is the number of items per client of the traced run, fixed
	// so its work counters repeat exactly for a seed.
	traced int
	// cpuBound says the items compute rather than wait, so their times
	// follow the host's speed and are reported at the reference speed
	// (host.go). Fleet-link round trips wait on the vehicles' simulated
	// schedule and do not follow it.
	cpuBound bool
	setup    func(seed int64) (instance, error)
}

var workloads = []workload{
	{name: "replay-golden", root: "item.replay", clients: 1, tail: 75, traced: 7, cpuBound: true, setup: setupReplay},
	{name: "scengen-sweep", root: "item.sweep", clients: 1, tail: 90, traced: 40, cpuBound: true, setup: setupSweep},
	{name: "armory-cold", root: "armory.cold", clients: 1, tail: 75, traced: 6, cpuBound: true, setup: setupCold},
	{name: "armory-fleet", root: "armory.Client.Randomize", clients: 2, tail: 99, traced: 300, cpuBound: true, setup: setupFleet},
	{name: "fleet-link", root: "netlink.roundtrip", clients: 2, tail: 99, traced: 200, setup: setupLink},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// header records what a run measured on.
type header struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	Commit     string  `json:"commit"`
}

// record is what -o writes: the header, the end-to-end metrics, and
// the per-layer metrics when the run was traced.
type record struct {
	Header    header            `json:"header"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Layers    map[string]metric `json:"layers,omitempty"`
}

// runOptions sizes one run.
type runOptions struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// setups is how many times the workload is set up; setup_s is the
	// median.
	setups int
	// tracedItems, when positive, caps the traced run's items per client
	// (smoke tests).
	tracedItems int
	spansPath   string
}

// errInterp is returned when the interpreter-only escape hatch is set.
var errInterp = errors.New("MAVR_AVR_INTERP is set: it selects the interpreter instead of the block engine users run; unset it")

// run performs one benchmark run and prints its metrics to out, the
// JSON result last.
func run(o runOptions, out io.Writer) (*record, error) {
	if os.Getenv("MAVR_AVR_INTERP") != "" {
		return nil, errInterp
	}
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	h := header{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
	}
	fmt.Fprintf(out, "# mavrbench workload=%s seed=%d seconds=%g trace=%v nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		h.Workload, h.Seed, h.Seconds, o.trace, h.Nproc, h.GOMAXPROCS, h.GoVersion, h.Commit)

	// Set up several times, each from a collected heap; setup_s is the
	// median, and the last instance runs.
	var setupTimes []float64
	var inst instance
	for i := 0; i < max(o.setups, 1); i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := time.Now()
		inst, err = w.setup(o.seed)
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}

	// The host's speed is sampled right before and after the loop.
	ref0 := refMs()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	lr := loop(w, inst, o.seconds, 0, nil)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	ref := (ref0 + refMs()) / 2
	rss := maxRSSMiB()
	failures := lr.errs
	failures = append(failures, inst.finish(nil)...)
	inst.close()

	n := len(lr.lat)
	var lat []float64
	for _, v := range lr.lat {
		lat = append(lat, v)
	}
	host := map[string]metric{
		"setup_s":      {median(setupTimes), "s"},
		"items_per_s":  {float64(n) / lr.elapsed.Seconds(), "1/s"},
		"item_ms_p50":  {median(lat), "ms"},
		"item_ms_tail": {percentile(lat, w.tail), "ms"},
	}
	// A CPU-bound workload's end-to-end metrics are its host times at
	// the reference speed: scaled by how much slower than nominal
	// refWork ran around the loop.
	scale := 1.0
	if w.cpuBound {
		scale = refNominalMs / ref
	}
	e2e := map[string]metric{}
	for k, m := range host {
		if m.Unit == "1/s" {
			m.Value /= scale
		} else {
			m.Value *= scale
		}
		e2e[k] = m
	}
	// The Go runtime's costs of the same loop; they are per-layer
	// metrics of the traced run.
	goCounts := map[string]float64{
		"go.items":       float64(n),
		"go.allocs":      float64(after.Mallocs - before.Mallocs),
		"go.alloc_bytes": float64(after.TotalAlloc - before.TotalAlloc),
		"go.cpu_ns":      float64(cpu.Nanoseconds()),
		"go.max_rss_mib": rss,
	}
	var extra []string
	for _, name := range e2eNames() {
		extra = append(extra, line(w.name, "host."+name, host[name].Value, host[name].Unit))
	}
	extra = append(extra,
		line(w.name, "host.ref_ms", ref, "ms"),
		line(w.name, "item_samples", float64(n), "count"),
		line(w.name, "item_tail_percentile", w.tail, "%"))
	if tailPercentile(n) < w.tail {
		fmt.Fprintf(os.Stderr, "mavrbench: %s: only %d items; p%g has fewer than 10 samples beyond it\n", w.name, n, w.tail)
	}
	if s, ok := inst.(interface{ extraLines() []string }); ok {
		extra = append(extra, s.extraLines()...)
	}

	var layers map[string]metric
	if o.trace {
		layers, err = tracedRun(w, o, lr.lat, goCounts, out, &failures)
		if err != nil {
			return nil, err
		}
	}

	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "mavrbench: %s: check failed: %v\n", w.name, f)
	}
	res := result{
		Correct:   len(failures) == 0,
		Attempted: n,
		Failed:    len(failures),
		Metrics:   e2e,
	}
	if o.trace {
		res.Metrics = layers
	}
	for _, name := range e2eNames() {
		fmt.Fprintln(out, line(w.name, name, e2e[name].Value, e2e[name].Unit))
	}
	fmt.Fprintln(out, line(w.name, "error_rate", float64(res.Failed)/float64(n), "failed/attempted"))
	for _, l := range extra {
		fmt.Fprintln(out, l)
	}
	if o.trace {
		for _, d := range layerDefs {
			fmt.Fprintln(out, line(w.name, d.name, layers[d.name].Value, d.unit))
		}
	}
	js, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(out, string(js))
	return &record{Header: h, Correct: res.Correct, Attempted: n, Failed: res.Failed, Metrics: e2e, Layers: layers}, nil
}

// tracedRun sets the workload up again, reruns the same items with the
// tracer on, probes the layers its items do not reach, and derives the
// per-layer metrics. untraced holds the untraced latencies by item, to
// price the tracing itself, and counts the untraced run's counters.
func tracedRun(w workload, o runOptions, untraced map[int]float64, counts map[string]float64, out io.Writer, failures *[]error) (map[string]metric, error) {
	inst, err := w.setup(o.seed)
	if err != nil {
		return nil, fmt.Errorf("%s: traced setup: %w", w.name, err)
	}
	tr := newTracer()
	for k, v := range counts {
		tr.add(k, v)
	}
	items := w.traced
	if o.tracedItems > 0 && o.tracedItems < items {
		items = o.tracedItems
	}
	lr := loop(w, inst, 0, items, tr)
	*failures = append(*failures, lr.errs...)
	*failures = append(*failures, inst.finish(tr)...)
	inst.close()
	if err := probe(tr, o.seed); err != nil {
		return nil, fmt.Errorf("%s: layer probes: %w", w.name, err)
	}

	a := tr.analyze()
	// Tracing overhead: root time of the traced items against the
	// untraced time of the same items.
	var rootSum, plainSum float64
	for _, i := range a.roots() {
		s := a.spans[i]
		if v, ok := untraced[s.Item]; ok {
			rootSum += float64(s.dur()) / 1e6
			plainSum += v
		}
	}
	if plainSum > 0 {
		a.overhead = rootSum/plainSum - 1
	}
	layers := layerMetrics(a)
	for _, l := range a.selfBreakdown(w.name) {
		fmt.Fprintln(out, l)
	}
	fmt.Fprintf(out, "# %s self times sum to the root spans within %.2f%%\n", w.name, 100*a.selfSumError())
	if o.spansPath != "" {
		f, err := os.Create(o.spansPath)
		if err != nil {
			return nil, err
		}
		if err := tr.writeSpans(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return layers, nil
}

// loopResult is the outcome of one closed-loop run.
type loopResult struct {
	lat     map[int]float64 // item id -> latency in ms
	errs    []error
	elapsed time.Duration
}

// itemID numbers item k of client c uniquely across clients.
func itemID(w workload, c, k int) int { return k*w.clients + c }

// loop runs the workload's clients in closed loops: each sends its next
// item when the previous one completes. It stops when seconds have
// passed (at least one item per client) or, with count > 0, after count
// items per client.
func loop(w workload, inst instance, seconds float64, count int, tr *tracer) loopResult {
	var mu sync.Mutex
	res := loopResult{lat: make(map[int]float64)}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; ; k++ {
				if count > 0 && k >= count || count == 0 && k > 0 && !time.Now().Before(deadline) {
					return
				}
				id := itemID(w, c, k)
				t0 := time.Now()
				root := tr.begin(w.root, id, 0)
				after, err := inst.item(c, k, id, tr, root)
				tr.end(root)
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				if err == nil && after != nil {
					err = after()
				}
				mu.Lock()
				res.lat[id] = ms
				if err != nil {
					res.errs = append(res.errs, fmt.Errorf("item %d: %w", id, err))
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// line formats one metric as "<workload> <name> <value> <unit>".
func line(workload, name string, v float64, unit string) string {
	return fmt.Sprintf("%s %s %s %s", workload, name, strconv.FormatFloat(v, 'g', -1, 64), unit)
}

// e2eNames lists the end-to-end metrics in print order.
func e2eNames() []string {
	return []string{"setup_s", "items_per_s", "item_ms_p50", "item_ms_tail"}
}

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the user plus system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// commit is the VCS revision the binary was built from, when the build
// had one.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}
