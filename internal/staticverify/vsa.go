package staticverify

import (
	"fmt"
	"slices"
	"sort"

	"mavr/internal/core"
	"mavr/internal/staticverify/vsa"
)

// VSAInfo summarizes the value-set analysis of one verified image: what
// the abstract interpreter proved about every indirect control transfer
// and every function's stack discipline.
type VSAInfo struct {
	// Sites lists every indirect transfer, sorted by address.
	Sites []VSASite `json:"sites,omitempty"`
	// ResolvedSites counts sites whose target pointer was proven to
	// come from an enumerable source; TotalSites counts all of them.
	ResolvedSites int `json:"resolved_sites"`
	TotalSites    int `json:"total_sites"`
	// EntryTargets is the size of the CFG's indirect-edge
	// over-approximation — the fallback target set an unresolved site
	// keeps.
	EntryTargets int `json:"entry_targets"`
	// MaxTargets is the largest proven target set across resolved sites.
	MaxTargets int `json:"max_targets"`
	// StackProven counts functions whose push/pop and call/ret balance
	// was proven on every path; StackFuncs counts analyzed (non-SPM)
	// functions.
	StackProven int `json:"stack_proven"`
	StackFuncs  int `json:"stack_funcs"`
}

// VSASite is one indirect transfer in the verified image.
type VSASite struct {
	Addr     uint32 `json:"addr"`
	Block    string `json:"block,omitempty"`
	Op       string `json:"op"`
	Call     bool   `json:"call"`
	Resolved bool   `json:"resolved"`
	// Targets is the proven target set (byte addresses), nil when the
	// site is unresolved and falls back to the entry-target
	// over-approximation.
	Targets []uint32 `json:"targets,omitempty"`
	// EntrySubset: every proven target is a member of the CFG's
	// entry-target set (the site cannot reach a function interior).
	EntrySubset bool `json:"entry_subset"`
}

// VSAInput mirrors a graph recovered from img into the analysis
// package's neutral types, handing over each function's linear decode
// so the analysis does not decode it again. The table and
// patched-offset lists come from the preprocessed base and are layout
// invariants: the pointer patcher rewrites table words in place, at the
// same flash offsets, in every permutation.
func VSAInput(img []byte, g *Graph, pre *core.Preprocessed) *vsa.Input {
	in := &vsa.Input{
		Img:         img,
		RegionStart: g.RegionStart,
		RegionEnd:   g.RegionEnd,
		Patched:     pre.PtrOffsets,
	}
	for _, t := range pre.PtrTables {
		in.Tables = append(in.Tables, vsa.Table{DataAddr: t.DataAddr, FlashOff: t.FlashOff, Words: t.Words})
	}
	in.Funcs = make([]vsa.Func, 0, len(g.Funcs))
	for _, f := range g.Funcs {
		vf := vsa.Func{Name: f.Name, Start: f.Start, End: f.End, HasSPM: f.HasSPM, Code: f.region.code}
		vf.Blocks = make([]vsa.Block, len(f.Blocks))
		for i, b := range f.Blocks {
			vf.Blocks[i] = vsa.Block{Start: b.Start, End: b.End, Succs: b.Succs}
		}
		in.Funcs = append(in.Funcs, vf)
	}
	return in
}

// vsaLayout positions a (possibly translated) analysis result in one
// concrete image: per analyzed function its name and absolute start —
// in the analysis' function order — plus the image to concretize table
// reads against and that image's sorted entry-target set.
type vsaLayout struct {
	img     []byte
	name    func(i int) string
	start   func(i int) uint32
	entries []uint32
}

// renderVSA renders an analysis result against a layout, producing the
// report section, the findings to merge, and whether the residual
// gadget audit may demote in-region stable gadgets: true exactly when
// every indirect site resolved and every proven target is a legitimate
// entry, i.e. no abstractly-reachable indirect edge lands anywhere a
// gadget could start. Base.Verify renders the translated base analysis
// through it, and the reference verifier in the tests a fresh one.
func renderVSA(res *vsa.Result, lay vsaLayout) (*VSAInfo, []Finding, bool) {
	info := &VSAInfo{EntryTargets: len(lay.entries)}
	var fs []Finding

	for i, fr := range res.Funcs {
		if fr.Skipped {
			continue
		}
		info.StackFuncs++
		if fr.StackProven {
			info.StackProven++
		}
		for _, f := range fr.Findings {
			fs = append(fs, Finding{
				Kind:     vsaFindingKind(f.Kind),
				Severity: vsaFindingSeverity(f.Kind),
				Addr:     lay.start(i) + f.Off,
				Block:    lay.name(i),
				Detail:   f.Detail,
			})
		}
	}

	demote := true
	for si := range res.Sites {
		s := &res.Sites[si]
		addr := lay.start(s.FuncIdx) + s.Off
		vs := VSASite{
			Addr:     addr,
			Block:    lay.name(s.FuncIdx),
			Op:       s.Op.String(),
			Call:     s.Call,
			Resolved: s.Resolved,
		}
		if s.Resolved {
			vs.Targets = s.Targets(lay.img)
			vs.EntrySubset = true
			for _, t := range vs.Targets {
				if _, ok := slices.BinarySearch(lay.entries, t); !ok {
					vs.EntrySubset = false
					demote = false
					break
				}
			}
			info.ResolvedSites++
			if len(vs.Targets) > info.MaxTargets {
				info.MaxTargets = len(vs.Targets)
			}
		} else {
			demote = false
			fs = append(fs, Finding{
				Kind: KindIndirectUnresolved, Severity: SevInfo, Addr: addr, Block: vs.Block,
				Detail: fmt.Sprintf("%s target pointer not statically bounded; over-approximated to %d entry targets",
					vs.Op, len(lay.entries)),
			})
		}
		info.TotalSites++
		info.Sites = append(info.Sites, vs)
	}
	sort.Slice(info.Sites, func(i, j int) bool { return info.Sites[i].Addr < info.Sites[j].Addr })
	return info, fs, demote
}

// vsaFindingKind maps analysis finding kinds onto report kinds.
func vsaFindingKind(kind string) Kind {
	switch kind {
	case vsa.KindStackUnproven:
		return KindStackUnproven
	case vsa.KindSPEscape:
		return KindSPEscape
	default: // ret-imbalance, stack-underflow
		return KindStackViolation
	}
}

// vsaFindingSeverity ranks analysis findings: a disproved property is a
// warning, an unprovable one is informational (the dynamic monitor
// still covers it).
func vsaFindingSeverity(kind string) Severity {
	if kind == vsa.KindStackUnproven {
		return SevInfo
	}
	return SevWarn
}
