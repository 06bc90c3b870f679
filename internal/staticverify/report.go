package staticverify

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"mavr/internal/core"
)

// Options tunes a Verify run.
type Options struct {
	// Gadgets enables the residual gadget audit (a scan of the base
	// image, then a census of each outcome's rets; skip it on hot boot
	// paths where only correctness matters).
	Gadgets bool
	// VSA enables value-set abstract interpretation over the recovered
	// CFG: indirect sites resolve to proven target sets where the
	// pointer provably comes from an enumerable source, per-function
	// stack discipline is proven or reported, and the gadget audit is
	// re-ranked by indirect-edge reachability.
	VSA bool
}

// DefaultOptions is what cmd/mavr-verify and mavr-randomize use: full
// verification including the gadget audit at the §VII-A census window
// (gadget.Window).
func DefaultOptions() Options {
	return Options{Gadgets: true}
}

// CFGStats summarizes the recovered graph.
type CFGStats struct {
	Funcs         int `json:"funcs"`
	BasicBlocks   int `json:"basic_blocks"`
	CallEdges     int `json:"call_edges"`
	IndirectSites int `json:"indirect_sites"`
	// IndirectTargets is the size of the over-approximated indirect
	// target set (0 when the image has no indirect sites).
	IndirectTargets int `json:"indirect_targets"`
	Instrs          int `json:"instrs"`
}

// Report is the complete result of verifying one randomization outcome.
type Report struct {
	Blocks      int          `json:"blocks"`
	RegionStart uint32       `json:"region_start"`
	RegionEnd   uint32       `json:"region_end"`
	CFG         CFGStats     `json:"cfg"`
	Diff        DiffStats    `json:"diff"`
	VSA         *VSAInfo     `json:"vsa,omitempty"`
	Gadgets     *GadgetAudit `json:"gadgets,omitempty"`
	Findings    []Finding    `json:"findings"`
}

// Errors counts error-severity findings: the ones that make an image
// unflashable.
func (r *Report) Errors() int { return countBySeverity(r.Findings, SevError) }

// Warnings counts warning-severity findings.
func (r *Report) Warnings() int { return countBySeverity(r.Findings, SevWarn) }

// OK reports whether the image is provably patch-complete: no
// error-severity findings.
func (r *Report) OK() bool { return r.Errors() == 0 }

// Verify runs the full static verification of one randomization
// outcome (see Base.Verify). Callers verifying many permutations of one
// base should keep the Base.
func Verify(pre *core.Preprocessed, r *core.Randomized, opts Options) *Report {
	return NewBase(pre, opts).Verify(r)
}

// sortFindings applies the canonical report ordering — severity
// descending, then address, then kind, block and detail. The trailing
// tiebreaks make the order a total one, so two runs that discover the
// same findings in different orders render byte-identical reports.
func sortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i].Severity != fs[j].Severity {
			return fs[i].Severity > fs[j].Severity
		}
		if fs[i].Addr != fs[j].Addr {
			return fs[i].Addr < fs[j].Addr
		}
		if fs[i].Kind != fs[j].Kind {
			return fs[i].Kind < fs[j].Kind
		}
		if fs[i].Block != fs[j].Block {
			return fs[i].Block < fs[j].Block
		}
		return fs[i].Detail < fs[j].Detail
	})
}

// WriteText renders the report for terminals.
func (r *Report) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "verify: %d blocks, region [0x%X,0x%X)\n", r.Blocks, r.RegionStart, r.RegionEnd)
	fmt.Fprintf(w, "  cfg:  %d funcs, %d basic blocks, %d call edges, %d indirect sites (over-approximated to %d entry targets), %d instrs\n",
		r.CFG.Funcs, r.CFG.BasicBlocks, r.CFG.CallEdges, r.CFG.IndirectSites, r.CFG.IndirectTargets, r.CFG.Instrs)
	fmt.Fprintf(w, "  diff: %d transfers, %d vectors, %d pointers proven remapped (%d words compared)\n",
		r.Diff.TransfersChecked, r.Diff.VectorsChecked, r.Diff.PointersChecked, r.Diff.WordsCompared)
	if r.VSA != nil {
		fmt.Fprintf(w, "  vsa:  %d/%d indirect sites resolved (max proven target set %d, vs %d entry targets), %d/%d functions stack-proven\n",
			r.VSA.ResolvedSites, r.VSA.TotalSites, r.VSA.MaxTargets, r.VSA.EntryTargets, r.VSA.StackProven, r.VSA.StackFuncs)
	}
	if r.Gadgets != nil {
		fmt.Fprintf(w, "  gadgets: %d orig, %d randomized, %d stable (%d inside shuffled region)\n",
			r.Gadgets.Orig, r.Gadgets.Rand, r.Gadgets.Stable, r.Gadgets.StableInRegion)
	}
	for _, f := range r.Findings {
		fmt.Fprintf(w, "  %s\n", f)
	}
	verdict := "PASS"
	if !r.OK() {
		verdict = "FAIL"
	}
	_, err := fmt.Fprintf(w, "  findings: %d errors, %d warnings, %d info — %s\n",
		r.Errors(), r.Warnings(), countBySeverity(r.Findings, SevInfo), verdict)
	return err
}

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
