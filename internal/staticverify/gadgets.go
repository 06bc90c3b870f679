package staticverify

import (
	"bytes"
	"fmt"

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

// AuditGadgets scans both images for ret-terminated gadget sequences
// and reports which addresses survive randomization unchanged.
// Survivors inside the shuffled region are per-address warnings;
// fixed-region survivors are summarized in one info finding.
func AuditGadgets(pre *core.Preprocessed, r *core.Randomized, maxWords int) (GadgetAudit, []Finding) {
	origGs := gadget.Scan(pre.Image, maxWords)
	return auditGadgetsAgainst(pre, r, maxWords, origGs, gadgetIndex(origGs), false)
}

// gadgetIndex maps a scan result by gadget start address.
func gadgetIndex(gs []*gadget.Gadget) map[uint32]*gadget.Gadget {
	at := make(map[uint32]*gadget.Gadget, len(gs))
	for _, g := range gs {
		at[g.Addr] = g
	}
	return at
}

// auditGadgetsAgainst is AuditGadgets with the original-image scan
// supplied by the caller, so a Base can amortize it across every
// permutation of its base image, clean or defective.
//
// demote re-ranks in-region stable-gadget findings from warning to
// info. The caller sets it when value-set analysis proved every
// indirect site resolves to legitimate entries: no
// attacker-influencable indirect edge can land on a gadget, so a
// stable gadget's reachability depends on a separately-mitigated
// stack-corruption primitive and is informational, not a rewriter
// defect.
func auditGadgetsAgainst(pre *core.Preprocessed, r *core.Randomized, maxWords int, origGs []*gadget.Gadget, origAt map[uint32]*gadget.Gadget, demote bool) (GadgetAudit, []Finding) {
	var audit GadgetAudit
	var findings []Finding

	stableSev := SevWarn
	stableSuffix := ""
	if demote {
		stableSev = SevInfo
		stableSuffix = "; unreachable from any resolved indirect edge"
	}
	randGs := gadget.Scan(r.Image, maxWords)
	audit.Orig, audit.Rand = len(origGs), len(randGs)
	fixedStable := 0
	emitted := 0
	for _, g := range randGs {
		og, ok := origAt[g.Addr]
		if !ok {
			continue
		}
		lo, hi := int(g.Addr)*2, (int(g.Addr)+g.Words())*2
		if hi > len(r.Image) || og.Words() != g.Words() ||
			!bytes.Equal(pre.Image[lo:hi], r.Image[lo:hi]) {
			continue
		}
		audit.Stable++
		byteAddr := g.Addr * 2
		if byteAddr >= pre.RegionStart && byteAddr < pre.RegionEnd {
			audit.StableInRegion++
			if emitted < maxStableFindings {
				emitted++
				findings = append(findings, Finding{
					Kind: KindStableGadget, Severity: stableSev, Addr: byteAddr,
					Detail: fmt.Sprintf("%s gadget (%d instrs) survives randomization unchanged inside the shuffled region%s",
						g.Kind, len(g.Instrs), stableSuffix),
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
