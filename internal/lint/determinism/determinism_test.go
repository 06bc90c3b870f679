package determinism

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// parseAndCheck type-checks one synthetic file and lints it. The
// importer only needs stdlib packages, which the source importer
// resolves without export data.
func parseAndCheck(t *testing.T, filename, src string) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Types: make(map[ast.Expr]types.TypeAndValue)}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		// Typecheck failure degrades the map check but must not stop
		// the syntactic ones; mirror the vettool's behavior.
		info = nil
	}
	return CheckFiles(fset, []*ast.File{f}, info)
}

// The canonical seeded violation: a deterministic package reads the
// wall clock. The linter must catch it.
func TestCatchesTimeNow(t *testing.T) {
	diags := parseAndCheck(t, "clock.go", `package p

import "time"

func stamp() int64 { return time.Now().UnixNano() }
`)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "time.Now") {
		t.Fatalf("wrong diagnostic: %s", diags[0])
	}
}

func TestCatchesTimeSinceAndUntil(t *testing.T) {
	diags := parseAndCheck(t, "clock.go", `package p

import "time"

func age(t0 time.Time) (time.Duration, time.Duration) {
	return time.Since(t0), time.Until(t0)
}
`)
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %v", len(diags), diags)
	}
}

// Duration arithmetic and constants are deterministic — no findings.
func TestAllowsDeterministicTimeUse(t *testing.T) {
	diags := parseAndCheck(t, "dur.go", `package p

import "time"

const tick = 50 * time.Millisecond

func double(d time.Duration) time.Duration { return 2 * d }
`)
	if len(diags) != 0 {
		t.Fatalf("false positives: %v", diags)
	}
}

func TestCatchesGlobalRand(t *testing.T) {
	diags := parseAndCheck(t, "rng.go", `package p

import "math/rand"

func roll() int { return rand.Intn(6) }

func noise() float64 { return rand.Float64() }
`)
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "rand.Intn") {
		t.Fatalf("wrong diagnostic: %s", diags[0])
	}
}

// Seeded generators are the sanctioned pattern.
func TestAllowsSeededRand(t *testing.T) {
	diags := parseAndCheck(t, "rng.go", `package p

import "math/rand"

func roll(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(6)
}
`)
	if len(diags) != 0 {
		t.Fatalf("false positives: %v", diags)
	}
}

func TestCatchesMapRange(t *testing.T) {
	diags := parseAndCheck(t, "iter.go", `package p

func sum(m map[string]int) (s int) {
	for _, v := range m {
		s += v
	}
	return s
}
`)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "range over map") {
		t.Fatalf("wrong diagnostic: %s", diags[0])
	}
}

// Ranging over slices, channels and integers is ordered — no findings.
func TestAllowsOrderedRange(t *testing.T) {
	diags := parseAndCheck(t, "iter.go", `package p

func sum(xs []int, ch chan int) (s int) {
	for _, v := range xs {
		s += v
	}
	for v := range ch {
		s += v
	}
	for i := range 10 {
		s += i
	}
	return s
}
`)
	if len(diags) != 0 {
		t.Fatalf("false positives: %v", diags)
	}
}

// The collect-then-sort idiom the diagnostic itself recommends must
// not be flagged: a body of just `keys = append(keys, k)` cannot
// observe iteration order.
func TestAllowsCollectAndSortIdiom(t *testing.T) {
	diags := parseAndCheck(t, "iter.go", `package p

import "sort"

func keys(m map[string]int) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
`)
	if len(diags) != 0 {
		t.Fatalf("collect loop flagged: %v", diags)
	}
}

// A collect loop that also does something order-sensitive is still
// flagged.
func TestCollectLoopWithSideEffectsFlagged(t *testing.T) {
	diags := parseAndCheck(t, "iter.go", `package p

func firstKey(m map[string]int) (ks []string, first string) {
	for k := range m {
		if first == "" {
			first = k
		}
		ks = append(ks, k)
	}
	return ks, first
}
`)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
}

// The //mavr:wallclock tag exempts a whole file.
func TestWallclockTagExempts(t *testing.T) {
	diags := parseAndCheck(t, "pacer.go", `// Pacing logic runs against the real clock by design.
//mavr:wallclock

package p

import "time"

func now() time.Time { return time.Now() }
`)
	if len(diags) != 0 {
		t.Fatalf("tagged file still flagged: %v", diags)
	}
}

// Test files are exempt wholesale by default.
func TestTestFilesExempt(t *testing.T) {
	diags := parseAndCheck(t, "clock_test.go", `package p

import "time"

func helper() time.Time { return time.Now() }
`)
	if len(diags) != 0 {
		t.Fatalf("test file flagged: %v", diags)
	}
}

// Options.IncludeTests (the vettool's -dettests flag) extends the
// checks to _test.go files, with the //mavr:wallclock opt-out intact.
func TestIncludeTestsLintsTestFiles(t *testing.T) {
	const src = `package p

import "time"

func helper() time.Time { return time.Now() }
`
	parse := func(name, src string) (*token.FileSet, []*ast.File) {
		t.Helper()
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		return fset, []*ast.File{f}
	}

	fset, files := parse("clock_test.go", src)
	diags := Check(fset, files, nil, Options{IncludeTests: true})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "time.Now") {
		t.Fatalf("IncludeTests missed the test-file violation: %v", diags)
	}

	fset, files = parse("clock_test.go", "//mavr:wallclock\n\n"+src)
	if diags := Check(fset, files, nil, Options{IncludeTests: true}); len(diags) != 0 {
		t.Fatalf("tagged test file still flagged under IncludeTests: %v", diags)
	}
}

// A local variable shadowing the import name must not trigger.
func TestShadowedImportName(t *testing.T) {
	diags := parseAndCheck(t, "shadow.go", `package p

type clock struct{ Now func() int64 }

func use(time clock) int64 { return time.Now() }
`)
	if len(diags) != 0 {
		t.Fatalf("shadowed name flagged: %v", diags)
	}
}

// A renamed time import is still caught.
func TestRenamedImport(t *testing.T) {
	diags := parseAndCheck(t, "renamed.go", `package p

import wall "time"

func stamp() int64 { return wall.Now().UnixNano() }
`)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
}

// Map-range detection degrades gracefully without type information
// instead of crashing or spewing false positives.
func TestNilInfoDegrades(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", `package p

import "time"

func f(m map[int]int) int64 {
	for range m {
	}
	return time.Now().UnixNano()
}
`, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	diags := CheckFiles(fset, []*ast.File{f}, nil)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "time.Now") {
		t.Fatalf("nil-info check got %v, want just the time.Now finding", diags)
	}
}

// The package set under enforcement matches the deterministic layers.
func TestDeterministicImportPaths(t *testing.T) {
	for _, p := range []string{"mavr/internal/netlink", "mavr/internal/gadget", "mavr/internal/firmware", "mavr/internal/core", "mavr/internal/detrand", "mavr/internal/staticverify", "mavr/internal/staticverify/vsa", "mavr/internal/armory", "mavr/internal/scenario", "mavr/internal/scengen", "mavr/internal/chaos"} {
		if !DeterministicImportPath(p) {
			t.Errorf("%s not enforced", p)
		}
	}
	for _, p := range []string{"mavr/internal/board", "mavr/internal/gcs", "fmt", "mavr/cmd/mavr-sim"} {
		if DeterministicImportPath(p) {
			t.Errorf("%s wrongly enforced", p)
		}
	}
}
