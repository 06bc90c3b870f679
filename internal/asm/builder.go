package asm

import "fmt"

type fixupKind int

const (
	fixAbs22    fixupKind = iota + 1 // jmp/call: patch both words
	fixRel12                         // rjmp/rcall: 12-bit signed word offset
	fixRel7                          // brbs/brbc: 7-bit signed word offset
	fixWordAddr                      // .dw label: 16-bit word address of label
	fixLDI                           // ldi reg, byte of label address
)

type fixup struct {
	at    uint32 // word index of the instruction's first word
	label string
	kind  fixupKind

	// fixLDI only:
	reg      int
	shift    uint
	byteAddr bool
}

// Builder assembles a program incrementally, resolving label references
// in a final pass. The zero value is ready to use.
type Builder struct {
	words  []uint16
	labels map[string]uint32
	fixups []fixup
	errs   []error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{labels: make(map[string]uint32)}
}

// Here returns the current location as a word address.
func (b *Builder) Here() uint32 { return uint32(len(b.words)) }

// HereBytes returns the current location as a byte address.
func (b *Builder) HereBytes() uint32 { return b.Here() * 2 }

// Label defines name at the current location.
func (b *Builder) Label(name string) {
	if b.labels == nil {
		b.labels = make(map[string]uint32)
	}
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("asm: duplicate label %q", name))
		return
	}
	b.labels[name] = b.Here()
}

// LabelAddr returns the word address of a defined label.
func (b *Builder) LabelAddr(name string) (uint32, bool) {
	a, ok := b.labels[name]
	return a, ok
}

// Emit appends raw instruction words.
func (b *Builder) Emit(words ...uint16) { b.words = append(b.words, words...) }

// Emit2 appends a two-word instruction.
func (b *Builder) Emit2(w [2]uint16) { b.words = append(b.words, w[0], w[1]) }

// JMP emits a long jump to label.
func (b *Builder) JMP(label string) {
	b.fixups = append(b.fixups, fixup{at: b.Here(), label: label, kind: fixAbs22})
	b.Emit(0x940C, 0)
}

// CALL emits a long call to label.
func (b *Builder) CALL(label string) {
	b.fixups = append(b.fixups, fixup{at: b.Here(), label: label, kind: fixAbs22})
	b.Emit(0x940E, 0)
}

// RJMP emits a relative jump to label (must be within ±2K words).
func (b *Builder) RJMP(label string) {
	b.fixups = append(b.fixups, fixup{at: b.Here(), label: label, kind: fixRel12})
	b.Emit(0xC000)
}

// RCALL emits a relative call to label.
func (b *Builder) RCALL(label string) {
	b.fixups = append(b.fixups, fixup{at: b.Here(), label: label, kind: fixRel12})
	b.Emit(0xD000)
}

// BRBS emits a conditional branch on flag s set.
func (b *Builder) BRBS(s int, label string) {
	b.fixups = append(b.fixups, fixup{at: b.Here(), label: label, kind: fixRel7})
	b.Emit(0xF000 | uint16(s))
}

// BRBC emits a conditional branch on flag s clear.
func (b *Builder) BRBC(s int, label string) {
	b.fixups = append(b.fixups, fixup{at: b.Here(), label: label, kind: fixRel7})
	b.Emit(0xF400 | uint16(s))
}

// LDIWordAddr emits "ldi reg, byte <shift> of label's word address"
// (shift 0 for the low byte, 8 for the high byte). This is how code
// loads a function pointer into Z for icall, and how GCC's
// -mcall-prologues return points are encoded — the LDI-encoded
// addresses the MAVR paper calls out as unpatchable (§VI-B1/B2).
func (b *Builder) LDIWordAddr(reg int, label string, shift uint) {
	b.fixups = append(b.fixups, fixup{at: b.Here(), label: label, kind: fixLDI, reg: reg, shift: shift})
	b.Emit(LDI(reg, 0))
}

// LDIByteAddr emits "ldi reg, byte <shift> of label's byte address"
// (shift 0/8/16), used for lpm/elpm pointers into flash data.
func (b *Builder) LDIByteAddr(reg int, label string, shift uint) {
	b.fixups = append(b.fixups, fixup{at: b.Here(), label: label, kind: fixLDI, reg: reg, shift: shift, byteAddr: true})
	b.Emit(LDI(reg, 0))
}

// DW emits a literal data word.
func (b *Builder) DW(w uint16) { b.Emit(w) }

// DWLabel emits the word address of label as a data word (a function
// pointer as avr-gcc stores them).
func (b *Builder) DWLabel(label string) {
	b.fixups = append(b.fixups, fixup{at: b.Here(), label: label, kind: fixWordAddr})
	b.Emit(0)
}

// Assemble resolves all fixups and returns the image as little-endian
// bytes.
func (b *Builder) Assemble() ([]byte, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("asm: undefined label %q", f.label)
		}
		switch f.kind {
		case fixAbs22:
			w := longBranch(b.words[f.at], target)
			b.words[f.at] = w[0]
			b.words[f.at+1] = w[1]
		case fixRel12:
			k := int64(target) - int64(f.at) - 1
			if k < -2048 || k > 2047 {
				return nil, fmt.Errorf("asm: rjmp/rcall to %q out of range (%d words)", f.label, k)
			}
			b.words[f.at] |= uint16(k) & 0x0FFF
		case fixRel7:
			k := int64(target) - int64(f.at) - 1
			if k < -64 || k > 63 {
				return nil, fmt.Errorf("asm: branch to %q out of range (%d words)", f.label, k)
			}
			b.words[f.at] |= (uint16(k) & 0x7F) << 3
		case fixWordAddr:
			if target > 0xFFFF {
				return nil, fmt.Errorf("asm: label %q at 0x%X does not fit a 16-bit function pointer", f.label, target)
			}
			b.words[f.at] = uint16(target)
		case fixLDI:
			addr := target
			if f.byteAddr {
				addr *= 2
			}
			b.words[f.at] = LDI(f.reg, int(addr>>f.shift)&0xFF)
		}
	}
	out := make([]byte, len(b.words)*2)
	for i, w := range b.words {
		out[i*2] = byte(w)
		out[i*2+1] = byte(w >> 8)
	}
	return out, nil
}
