// Package determinism lints packages that must behave identically on
// every run for the simulation to be reproducible: the randomization
// pipeline, the gadget census, firmware generation and the network
// fabric's simulated-time core. It forbids
//
//   - wall-clock reads (time.Now, time.Since, time.Until),
//   - the global math/rand source (rand.Intn and friends — seeded
//     rand.New(rand.NewSource(...)) instances remain fine), and
//   - iteration-order-dependent code that ranges over a map while the
//     body's effects depend on ordering (conservatively: any range over
//     a map is flagged; deterministic bodies collect keys and sort).
//
// Files that legitimately touch the wall clock (UDP pacing, deadline
// management) opt out with a `//mavr:wallclock` comment anywhere in the
// file. Test files are exempt by default; Options.IncludeTests (the
// vettool's -dettests flag) extends the checks to them, with the same
// per-file opt-out.
//
// The checker is pure stdlib (go/ast + go/types) so it can run as a
// `go vet -vettool` without golang.org/x/tools; cmd/determinism-vet
// adapts it to the vet unitchecker protocol.
package determinism

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// WallclockTag is the magic comment that exempts a file.
const WallclockTag = "//mavr:wallclock"

// DeterministicImportPath reports whether a package must be
// deterministic and is therefore subject to this linter.
func DeterministicImportPath(path string) bool {
	switch path {
	case "mavr/internal/netlink",
		"mavr/internal/gadget",
		"mavr/internal/firmware",
		"mavr/internal/core",
		"mavr/internal/detrand",
		"mavr/internal/scenario",
		"mavr/internal/scengen",
		"mavr/internal/chaos",
		"mavr/internal/staticverify",
		"mavr/internal/staticverify/vsa",
		"mavr/internal/armory":
		return true
	}
	return false
}

// bannedTime are wall-clock reads; everything else in package time
// (constants, Duration arithmetic, parsing) is deterministic.
var bannedTime = map[string]bool{
	"Now": true, "Since": true, "Until": true,
}

// bannedRand are the math/rand package-level functions backed by the
// shared global source. Constructors for locally seeded generators
// (New, NewSource, NewZipf) stay allowed.
var bannedRand = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true,
	"Read": true, "Seed": true,
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Position
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s", d.Pos, d.Message)
}

// Options configures a lint pass.
type Options struct {
	// IncludeTests extends the checks to _test.go files. Tests in
	// deterministic packages that legitimately touch the wall clock
	// (real-socket integration tests, latency measurements) opt out
	// per file with the same //mavr:wallclock tag.
	IncludeTests bool
}

// CheckFiles lints the files of one package with default options.
func CheckFiles(fset *token.FileSet, files []*ast.File, info *types.Info) []Diagnostic {
	return Check(fset, files, info, Options{})
}

// Check lints the files of one package. info may be nil (or
// partially filled after a failed typecheck); the wall-clock and global
// rand checks are purely syntactic, while the map-range check silently
// degrades to the expressions the typechecker did resolve.
func Check(fset *token.FileSet, files []*ast.File, info *types.Info, opts Options) []Diagnostic {
	var diags []Diagnostic
	for _, f := range files {
		name := fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") && !opts.IncludeTests {
			continue
		}
		if exempt(f) {
			continue
		}
		imports := localImportNames(f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				id, ok := n.X.(*ast.Ident)
				if !ok {
					return true
				}
				// A package selector's base identifier has no object;
				// a variable named "time" or "rand" shadows the import.
				if id.Obj != nil {
					return true
				}
				switch imports[id.Name] {
				case "time":
					if bannedTime[n.Sel.Name] {
						diags = append(diags, Diagnostic{
							Pos: fset.Position(n.Pos()),
							Message: fmt.Sprintf("call to time.%s in deterministic package (tag the file %s if wall-clock use is intended)",
								n.Sel.Name, WallclockTag),
						})
					}
				case "math/rand", "math/rand/v2":
					if bannedRand[n.Sel.Name] {
						diags = append(diags, Diagnostic{
							Pos: fset.Position(n.Pos()),
							Message: fmt.Sprintf("rand.%s uses the global random source in deterministic package; use a seeded rand.New(rand.NewSource(...))",
								n.Sel.Name),
						})
					}
				}
			case *ast.RangeStmt:
				if info == nil || n.X == nil {
					return true
				}
				if tv, ok := info.Types[n.X]; ok && tv.Type != nil {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap && !isCollectLoop(n) {
						diags = append(diags, Diagnostic{
							Pos:     fset.Position(n.Pos()),
							Message: "range over map in deterministic package: iteration order varies per run; collect and sort the keys",
						})
					}
				}
			}
			return true
		})
	}
	return diags
}

// isCollectLoop recognizes the sanctioned fix itself: a range over a
// map whose whole body is `xs = append(xs, ...)` only gathers elements
// for a later sort, so iteration order cannot leak out of the loop.
func isCollectLoop(n *ast.RangeStmt) bool {
	if n.Body == nil || len(n.Body.List) != 1 {
		return false
	}
	asg, ok := n.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	return ok && fn.Name == "append" && fn.Obj == nil
}

// exempt reports whether the file carries the wallclock opt-out tag.
func exempt(f *ast.File) bool {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(strings.TrimSpace(c.Text), WallclockTag) {
				return true
			}
		}
	}
	return false
}

// localImportNames maps each import's local name in this file to its
// import path, resolving renames and defaulting to the last path
// element.
func localImportNames(f *ast.File) map[string]string {
	m := make(map[string]string, len(f.Imports))
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := path
		if i := strings.LastIndex(path, "/"); i >= 0 {
			name = path[i+1:]
		}
		if imp.Name != nil {
			name = imp.Name.Name
			if name == "_" || name == "." {
				continue
			}
		}
		m[name] = path
	}
	return m
}
