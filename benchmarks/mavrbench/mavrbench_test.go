package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4), the
// rule the run-to-run spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1, 4, 2, 3, 10, 7}, 2, 4, 7},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := percentile([]float64{4, 1, 3, 2}, 50); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// addSpan appends a finished span for the self-time tests.
func addSpan(tr *tracer, name string, parent int, start, end int64) int {
	tr.spans = append(tr.spans, span{Name: name, ID: len(tr.spans) + 1, Parent: parent, Start: start, End: end})
	return len(tr.spans)
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	root := addSpan(tr, "item", 0, 0, 100)
	run := addSpan(tr, "scenario.Run", root, 0, 90)
	// Repeated internal calls lie outside the Run interval.
	addSpan(tr, "firmware.Generate", run, 100, 120)
	addSpan(tr, "core.Preprocess", run, 120, 125)
	addSpan(tr, "scenario.AppendTrace", root, 90, 98)
	// A probe tree: excluded from the item accounting.
	p := addSpan(tr, probeRoot, 0, 200, 300)
	addSpan(tr, "firmware.Generate", p, 200, 260)

	a := tr.analyze()
	want := []int64{2, 65, 20, 5, 8, 40, 60}
	for i, w := range want {
		if a.self[i] != w {
			t.Errorf("self(%s) = %d, want %d", a.spans[i].Name, a.self[i], w)
		}
	}
	if got := a.selfSumError(); got != 0 {
		t.Errorf("selfSumError = %g, want 0", got)
	}
	if got := a.durations("firmware.Generate"); len(got) != 1 || got[0] != 20e-6 {
		t.Errorf("durations prefer item spans: got %v", got)
	}
	if got := a.durations("probe"); len(got) != 1 {
		t.Errorf("probe root durations = %v", got)
	}
	if got := a.roots(); len(got) != 1 || got[0] != 0 {
		t.Errorf("roots = %v, want [0]", got)
	}

	// A repeated call longer than its parent floors the parent's self
	// time at zero, and the accounting gap shows.
	tr2 := newTracer()
	r := addSpan(tr2, "item", 0, 0, 10)
	addSpan(tr2, "core.Randomize", r, 10, 30)
	a2 := tr2.analyze()
	if a2.self[0] != 0 {
		t.Errorf("self floored: got %d", a2.self[0])
	}
	if got := a2.selfSumError(); got != 1 {
		t.Errorf("selfSumError = %g, want 1", got)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name     string
		old, new []float64
		better   string
		bound    float64
		want     string
	}{
		{"same", steady, steady, "lower", 0.05, unchanged},
		{"within bound", steady, []float64{103, 104, 102, 103, 103}, "lower", 0.05, unchanged},
		{"slower", steady, []float64{120, 121, 119, 120, 120}, "lower", 0.05, regressed},
		{"faster", steady, []float64{80, 81, 79, 80, 80}, "lower", 0.05, improved},
		{"throughput down", steady, []float64{80, 81, 79, 80, 80}, "higher", 0.05, regressed},
		{"noisy", steady, []float64{80, 140, 100, 60, 130}, "lower", 0.05, unresolved},
		{"noisy but every run better", []float64{100, 150, 120, 130, 110}, []float64{50, 60, 90, 55, 70}, "lower", 0.05, improved},
	} {
		if got := verdict(c.old, c.new, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
	if got := exactVerdict(map[int64][]float64{1: {5}, 2: {7}}, map[int64][]float64{1: {5}, 2: {7}, 3: {9}}); got != unchanged {
		t.Errorf("exact, same per seed: %s", got)
	}
	if got := exactVerdict(map[int64][]float64{1: {5}}, map[int64][]float64{1: {6}}); got != changed {
		t.Errorf("exact, different: %s", got)
	}
}

func TestCompareGates(t *testing.T) {
	spec := &benchSpec{
		Workloads: []specWorkload{{Name: "w"}},
		EndToEnd:  []specMetric{{Name: "items_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}},
		PerLayer:  []specMetric{{Name: "scenario.records", Unit: "count", Better: "lower"}},
	}
	rec := func(seed int64, failed int, rate, records float64) record {
		return record{
			Header:    header{Workload: "w", Seed: seed},
			Attempted: 100, Failed: failed,
			Metrics: map[string]metric{"items_per_s": {rate, "1/s"}},
			Layers:  map[string]metric{"scenario.records": {records, "count"}},
		}
	}
	base := []record{rec(1, 0, 10, 5), rec(2, 0, 10.1, 6), rec(3, 0, 9.9, 7)}
	var out bytes.Buffer
	if compare(spec, base, []record{rec(1, 0, 10, 5), rec(2, 0, 10, 6), rec(3, 0, 10.1, 7)}, &out) {
		t.Errorf("identical runs failed the gate:\n%s", out.String())
	}
	if !compare(spec, base, []record{rec(1, 0, 7, 5), rec(2, 0, 7.1, 6), rec(3, 0, 6.9, 7)}, &out) {
		t.Error("a 30% throughput drop passed the gate")
	}
	if !compare(spec, base, []record{rec(1, 1, 10, 5), rec(2, 0, 10, 6), rec(3, 0, 10, 7)}, &out) {
		t.Error("a rise in the error rate passed the gate")
	}
	if !compare(spec, base, []record{rec(1, 0, 10, 5), rec(2, 0, 10, 8), rec(3, 0, 10, 7)}, &out) {
		t.Error("a changed exact count passed the gate")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

const specPath = "../../BENCHMARK.json"

// timeUnits are the units of measured times, which are never zero.
var timeUnits = map[string]bool{"ms": true, "ns": true, "ms/sim_s": true, "ns/B": true}

// TestBenchmarkJSON validates BENCHMARK.json and checks that it lists
// exactly the workloads and metrics this program produces.
func TestBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Command) == 0 || len(spec.Command) > 32 {
		t.Errorf("command has %d strings", len(spec.Command))
	}
	for _, c := range spec.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q", c)
		}
	}
	if len(spec.Paths) < 1 || len(spec.Paths) > 16 {
		t.Errorf("%d paths", len(spec.Paths))
	}
	for _, p := range spec.Paths {
		if !pathRE.MatchString(p) || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or repeated", n)
		}
		seen[n] = true
	}

	if len(spec.Workloads) < 2 || len(spec.Workloads) > 8 || len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		checkName(w.Name)
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, the program has %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if len(spec.EndToEnd) < 1 || len(spec.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics", len(spec.EndToEnd))
	}
	var setupBound, maxBound float64
	var e2e []string
	for _, m := range spec.EndToEnd {
		checkName(m.Name)
		e2e = append(e2e, m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %g must be the largest (%g)", setupBound, maxBound)
	}
	if strings.Join(e2e, ",") != strings.Join(e2eNames(), ",") {
		t.Errorf("end-to-end metrics %v, the program prints %v", e2e, e2eNames())
	}

	if len(spec.PerLayer) < 1 || len(spec.PerLayer) > 128 || len(spec.PerLayer) != len(layerDefs) {
		t.Errorf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(spec.PerLayer), len(layerDefs))
	}
	for i, m := range spec.PerLayer {
		checkName(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("%s: unit %q, better %q, bound %g", m.Name, m.Unit, m.Better, m.Bound)
		}
		if i < len(layerDefs) {
			if d := layerDefs[i]; d.name != m.Name || d.unit != m.Unit || d.better != m.Better {
				t.Errorf("per-layer %d is %s/%s/%s, the program has %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
			}
		}
	}
	if fi, err := os.Stat(specPath); err == nil && fi.Size() > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", fi.Size())
	}
}

// TestSmoke runs every workload at a tiny size, traced, from the
// repository root, and checks that it passes its output checks and
// prints every metric BENCHMARK.json lists, with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join(wd, "..", "..")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })

	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			var out bytes.Buffer
			rec, err := run(runOptions{workload: w.name, seed: 2, seconds: 0.05, trace: true, setups: 1, tracedItems: 1}, &out)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", rec.Correct, rec.Attempted, rec.Failed)
			}
			printed := map[string]string{}
			var last string
			sc := bufio.NewScanner(&out)
			for sc.Scan() {
				last = sc.Text()
				f := strings.Fields(last)
				if len(f) == 4 && f[0] == w.name {
					if _, err := strconv.ParseFloat(f[2], 64); err != nil {
						t.Errorf("%s: value %q", f[1], f[2])
					}
					printed[f[1]] = f[3]
				}
			}
			var res result
			if err := json.Unmarshal([]byte(last), &res); err != nil {
				t.Fatalf("last line is not the result: %v", err)
			}
			if len(res.Metrics) != len(spec.PerLayer) {
				t.Errorf("traced result has %d metrics, want the %d per-layer ones", len(res.Metrics), len(spec.PerLayer))
			}
			for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
				if printed[m.Name] != m.Unit {
					t.Errorf("%s printed with unit %q, want %q", m.Name, printed[m.Name], m.Unit)
				}
			}
			for _, m := range spec.EndToEnd {
				if v := rec.Metrics[m.Name].Value; !(v > 0) {
					t.Errorf("%s = %g, want > 0", m.Name, v)
				}
			}
			for _, m := range spec.PerLayer {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("%s missing from the result", m.Name)
				}
				if timeUnits[m.Unit] && !(res.Metrics[m.Name].Value > 0) {
					t.Errorf("%s = %g, want a measured time", m.Name, res.Metrics[m.Name].Value)
				}
			}
		})
	}
}

func TestRefusesInterpreter(t *testing.T) {
	t.Setenv("MAVR_AVR_INTERP", "1")
	if _, err := run(runOptions{workload: "replay-golden", seed: 1}, &bytes.Buffer{}); err != errInterp {
		t.Fatalf("err = %v, want the interpreter refusal", err)
	}
}
