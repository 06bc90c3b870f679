package staticverify

import (
	"encoding/json"
	"fmt"
)

// Severity ranks a finding. Only SevError findings make an image
// unflashable; warnings and info are reported but do not fail
// verification.
type Severity int

// Severities, weakest first.
const (
	SevInfo Severity = iota + 1
	SevWarn
	SevError
)

func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarn:
		return "warning"
	case SevError:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// MarshalJSON renders the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON accepts what MarshalJSON emits (the severity name), so
// reports survive a JSON round trip — e.g. through the armory HTTP API.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "info":
		*s = SevInfo
	case "warning":
		*s = SevWarn
	case "error":
		*s = SevError
	default:
		return fmt.Errorf("unknown severity %q", name)
	}
	return nil
}

// Kind classifies what a finding is about.
type Kind string

// Finding kinds.
const (
	// KindUnpatchedTransfer: a direct jmp/call/rjmp/rcall or
	// conditional branch whose encoded target does not equal the
	// remapped original target.
	KindUnpatchedTransfer Kind = "unpatched-transfer"
	// KindUnpatchedVector: same defect inside the interrupt vector
	// table.
	KindUnpatchedVector Kind = "unpatched-vector"
	// KindUnpatchedPointer: a data-section function pointer that was
	// not rewritten to its relocated target.
	KindUnpatchedPointer Kind = "unpatched-pointer"
	// KindDanglingEdge: a control transfer or pointer whose target does
	// not decode, lands in a non-code region or on a word the
	// randomizer rewrites, or misses every function entry it should
	// hit.
	KindDanglingEdge Kind = "dangling-edge"
	// KindOpcodeMismatch: the instruction streams of original and
	// randomized image diverge beyond target patching.
	KindOpcodeMismatch Kind = "opcode-mismatch"
	// KindDataChanged: a byte past the code region, outside every
	// patched pointer slot, differs from the original. That data —
	// initialised variables, calibration values — must survive a
	// permutation unchanged.
	KindDataChanged Kind = "data-changed"
	// KindUndecodable: an invalid opcode inside a function body — the
	// instruction walk desynchronized, nothing after it is verifiable.
	KindUndecodable Kind = "undecodable"
	// KindUnverifiableSPM: the function contains spm; a self-modifying
	// flash region must be reported, never silently passed.
	KindUnverifiableSPM Kind = "spm-unverifiable"
	// KindInteriorTarget: a call or jump lands inside a function body
	// rather than on an entry (legal on real toolchains, suspicious
	// here).
	KindInteriorTarget Kind = "interior-target"
	// KindStableGadget: a gadget address that survives randomization
	// with identical bytes — the stable-gadget condition V1–V3 need.
	KindStableGadget Kind = "stable-gadget"
	// KindSizeMismatch: the randomized image is not the same length as
	// the original.
	KindSizeMismatch Kind = "size-mismatch"
	// KindBadLayout: the randomization's layout does not fit the
	// original — a relocated start missing or extra, or relocated
	// blocks that do not tile the original's code region exactly (a
	// gap, an overlap, or a block outside the region).
	KindBadLayout Kind = "bad-layout"
	// KindStackViolation: value-set analysis disproved a function's
	// stack discipline — a path reaches RET with an unbalanced frame, or
	// pops below the entry stack pointer.
	KindStackViolation Kind = "stack-violation"
	// KindStackUnproven: the analysis could not prove stack discipline
	// (SP re-pointed to an untracked value, widened loop, or an indirect
	// jump exit) — not a defect, but not a proof either.
	KindStackUnproven Kind = "stack-unproven"
	// KindSPEscape: a store writes the stack pointer from a value the
	// analysis cannot relate to the entry SP — the paper's stk_move
	// pivot shape.
	KindSPEscape Kind = "sp-escape"
	// KindIndirectUnresolved: an icall/ijmp site whose target pointer
	// the value-set analysis could not bound; it keeps the entry-target
	// over-approximation.
	KindIndirectUnresolved Kind = "indirect-unresolved"
)

// Finding is one structured verification result.
type Finding struct {
	Kind     Kind     `json:"kind"`
	Severity Severity `json:"severity"`
	// Addr is the byte address in the randomized image the finding
	// anchors to.
	Addr uint32 `json:"addr"`
	// Block names the containing function, when known.
	Block string `json:"block,omitempty"`
	// Detail is the human-readable explanation.
	Detail string `json:"detail"`
}

func (f Finding) String() string {
	loc := fmt.Sprintf("0x%05X", f.Addr)
	if f.Block != "" {
		loc += " [" + f.Block + "]"
	}
	return fmt.Sprintf("%-7s %-18s %s: %s", f.Severity, f.Kind, loc, f.Detail)
}

// countBySeverity tallies findings at exactly severity s.
func countBySeverity(fs []Finding, s Severity) int {
	n := 0
	for _, f := range fs {
		if f.Severity == s {
			n++
		}
	}
	return n
}
