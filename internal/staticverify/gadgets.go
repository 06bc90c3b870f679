package staticverify

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"

	"mavr/internal/core"
	"mavr/internal/gadget"
)

// GadgetAudit is the residual-gadget-surface comparison of one
// randomization outcome.
type GadgetAudit struct {
	// Orig and Rand count gadgets found in each image.
	Orig int `json:"orig"`
	Rand int `json:"rand"`
	// Stable counts gadgets present at the same address with identical
	// bytes in both images — the stable-gadget condition the paper's
	// V1–V3 attacks need.
	Stable int `json:"stable"`
	// StableInRegion counts the stable survivors inside the shuffled
	// function region (rewriter-relevant); the rest live in fixed
	// regions (vectors, stubs, data/calibration) and are invariants of
	// the firmware itself.
	StableInRegion int `json:"stable_in_region"`
}

// maxStableFindings caps per-address stable-gadget findings so an
// identity permutation (everything stable) stays readable.
const maxStableFindings = 25

// AuditGadgets finds the ret-terminated gadget sequences of both
// images — a scan of the original, then the census of the randomized
// one against it — and reports which addresses survive randomization
// unchanged. Survivors inside the shuffled region are per-address
// warnings; fixed-region survivors are summarized in one info finding.
func AuditGadgets(pre *core.Preprocessed, r *core.Randomized, maxWords int) (GadgetAudit, []Finding) {
	return newGadgetCensus(pre.Image, maxWords).audit(pre, r, false)
}

// gadgetShape is what the census keeps of one gadget: its first word
// address, its instruction count and its kind.
type gadgetShape struct {
	start  uint32
	instrs int
	kind   gadget.Kind
}

// gadgetCensus is the base image's half of the residual-gadget audit:
// the shape of the gadget at every ret word, in address order.
//
// A gadget's shape relative to its ret depends only on its window, the
// maxWords+1 words ending at the ret (gadget.Finder.Find). So a ret of
// a randomized image whose window is byte-identical to the window of a
// base ret has that base gadget's shape, shifted; only a ret whose
// window a permutation changed needs its suffix recomputed. The layout
// just proposes which base ret to compare against — the byte compare
// decides — so the census is exact for any image, clean or defective.
type gadgetCensus struct {
	maxWords int
	shapes   []gadgetShape
	// isRet marks the base's ret words; below[g] counts the rets below
	// word 64*g, so a ret's shape index is a popcount away.
	isRet []uint64
	below []uint32
}

// newGadgetCensus scans a base image.
func newGadgetCensus(img []byte, maxWords int) *gadgetCensus {
	gs := gadget.Scan(img, maxWords)
	groups := len(img)/2/64 + 1
	c := &gadgetCensus{
		maxWords: maxWords,
		shapes:   make([]gadgetShape, len(gs)),
		isRet:    make([]uint64, groups),
		below:    make([]uint32, groups),
	}
	for i, g := range gs {
		ret := g.Addr + uint32(g.Words()) - 1
		c.isRet[ret/64] |= 1 << (ret % 64)
		c.shapes[i] = gadgetShape{start: g.Addr, instrs: len(g.Instrs), kind: g.Kind}
	}
	for g := 1; g < groups; g++ {
		c.below[g] = c.below[g-1] + uint32(bits.OnesCount64(c.isRet[g-1]))
	}
	return c
}

// at returns the base gadget whose ret is the word at address w.
func (c *gadgetCensus) at(w uint32) (gadgetShape, bool) {
	g, bit := w/64, uint64(1)<<(w%64)
	if g >= uint32(len(c.isRet)) || c.isRet[g]&bit == 0 {
		return gadgetShape{}, false
	}
	return c.shapes[int(c.below[g])+bits.OnesCount64(c.isRet[g]&(bit-1))], true
}

// sortedStarts lists the relocated blocks in ascending start order, as
// start<<32 | block index. Randomize lays the blocks out in Perm order,
// so Perm is tried first: keys strictly increasing in that order name
// each block once. Any other layout is sorted, and one of the wrong
// length contributes the blocks both sides have. Reading the order off
// Perm is linear: sorting ArduPlane's ~1,000 keys in both callers
// instead adds about 0.12 ms to a 0.33 ms cached verify under the
// default options with VSA (2-vCPU host, one core).
func sortedStarts(pre *core.Preprocessed, r *core.Randomized) []uint64 {
	n := min(len(r.NewStart), len(pre.Blocks))
	keys := make([]uint64, n)
	inPerm := len(r.Perm) == n
	for k := 0; k < n && inPerm; k++ {
		i := r.Perm[k]
		if i < 0 || i >= n {
			inPerm = false
			break
		}
		keys[k] = uint64(r.NewStart[i])<<32 | uint64(i)
		inPerm = k == 0 || keys[k] > keys[k-1]
	}
	if !inPerm {
		for i := range keys {
			keys[i] = uint64(r.NewStart[i])<<32 | uint64(i)
		}
		slices.Sort(keys)
	}
	return keys
}

// audit counts the randomized image's gadgets and the stable ones among
// them.
//
// demote re-ranks in-region stable-gadget findings from warning to
// info. The caller sets it when value-set analysis proved every
// indirect site resolves to legitimate entries: no
// attacker-influencable indirect edge can land on a gadget, so a
// stable gadget's reachability depends on a separately-mitigated
// stack-corruption primitive and is informational, not a rewriter
// defect.
func (c *gadgetCensus) audit(pre *core.Preprocessed, r *core.Randomized, demote bool) (GadgetAudit, []Finding) {
	audit := GadgetAudit{Orig: len(c.shapes)}
	var findings []Finding

	stableSev := SevWarn
	stableSuffix := ""
	if demote {
		stableSev = SevInfo
		stableSuffix = "; unreachable from any resolved indirect edge"
	}
	var finder *gadget.Finder
	mw := uint32(c.maxWords)
	fixedStable := 0
	emitted := 0
	starts := sortedStarts(pre, r)
	blk, next := -1, 0 // the block the last ret fell in; the next start
	words := len(r.Image) / 2
	for w := gadget.NextRet(r.Image, 0, words); w < words; w = gadget.NextRet(r.Image, w+1, words) {
		ret := uint32(w)
		audit.Rand++

		// Where the layout says this ret was in the base: inside the
		// last non-empty relocated block starting at or below it, or
		// at the same address.
		for next < len(starts) && uint32(starts[next]>>32) <= ret*2 {
			if i := int(uint32(starts[next])); pre.Blocks[i].Size > 0 {
				blk = i
			}
			next++
		}
		old := ret
		if blk >= 0 {
			if off := ret*2 - r.NewStart[blk]; off < pre.Blocks[blk].Size {
				old = (pre.Blocks[blk].Start + off) / 2
			}
		}

		g, ok := c.at(old)
		if ok && ret >= mw && old >= mw &&
			bytes.Equal(pre.Image[(old-mw)*2:(old+1)*2], r.Image[(ret-mw)*2:(ret+1)*2]) {
			g.start = ret - (old - g.start)
		} else {
			if finder == nil {
				finder = gadget.NewFinder(c.maxWords)
			}
			g.start, g.instrs, g.kind = finder.Find(r.Image, ret)
		}

		// Stable: the base has the same gadget at the same address with
		// the same bytes.
		if og, ok := c.at(ret); !ok || og.start != g.start ||
			!bytes.Equal(pre.Image[g.start*2:(ret+1)*2], r.Image[g.start*2:(ret+1)*2]) {
			continue
		}
		audit.Stable++
		byteAddr := g.start * 2
		if byteAddr >= pre.RegionStart && byteAddr < pre.RegionEnd {
			audit.StableInRegion++
			if emitted < maxStableFindings {
				emitted++
				findings = append(findings, Finding{
					Kind: KindStableGadget, Severity: stableSev, Addr: byteAddr,
					Detail: fmt.Sprintf("%s gadget (%d instrs) survives randomization unchanged inside the shuffled region%s",
						g.kind, g.instrs, stableSuffix),
				})
			}
		} else {
			fixedStable++
		}
	}
	if over := audit.StableInRegion - emitted; over > 0 {
		findings = append(findings, Finding{
			Kind: KindStableGadget, Severity: stableSev,
			Detail: fmt.Sprintf("... and %d more stable gadgets in the shuffled region", over),
		})
	}
	if fixedStable > 0 {
		findings = append(findings, Finding{
			Kind: KindStableGadget, Severity: SevInfo,
			Detail: fmt.Sprintf("%d gadgets in fixed regions (vectors/stubs/data/calibration) survive every randomization; they are firmware invariants, not rewriter defects", fixedStable),
		})
	}
	return audit, findings
}
