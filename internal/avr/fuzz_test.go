package avr

// Internal test: FuzzDecode reads flash through the unexported wordAt,
// and FuzzBlockExec compares unexported interrupt state.

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzDecode feeds arbitrary flash contents to the decoder. Invariants:
// Decode never panics, InstrWords always agrees with Decode on the
// instruction length, and DecodeAt — what the interpreter and the block
// translator decode with — returns exactly what Decode returns for the
// same two flash words.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x0C, 0x94, 0x34, 0x12}) // jmp
	f.Add([]byte{0x0E, 0x94, 0x00, 0x00}) // call
	f.Add([]byte{0x08, 0x95, 0x18, 0x95}) // ret, reti
	f.Add([]byte{0xE8, 0x95, 0x09, 0x94}) // spm, ijmp
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // erased flash
	f.Add([]byte{0x0C, 0x94})             // two-word instr cut short
	f.Add(make([]byte, 512))              // a page of nops

	// Two erased words past the longest input keep every word the loop
	// decodes, operands included, inside the buffer.
	flash := make([]byte, 4096+4)
	f.Fuzz(func(t *testing.T, image []byte) {
		if len(image) > 4096 {
			image = image[:4096]
		}
		for i := range flash {
			flash[i] = 0xFF
		}
		copy(flash, image)
		words := uint32((len(image) + 1) / 2)
		for pc := uint32(0); pc <= words; pc++ {
			plain := Decode(wordAt(flash, pc), wordAt(flash, pc+1))
			if got := InstrWords(wordAt(flash, pc)); got != plain.Words {
				t.Fatalf("pc %d: InstrWords = %d, Decode.Words = %d", pc, got, plain.Words)
			}
			if streamed := DecodeAt(flash, pc); streamed != plain {
				t.Fatalf("pc %d: DecodeAt = %+v, Decode = %+v", pc, streamed, plain)
			}
		}
	})
}

// FuzzBlockExec is the differential conformance harness for the block
// translation engine and the execution loop's other entry points: the
// same flash image, register seed and stimulus plan run in lockstep on
// a ForceInterpreter CPU driven by Run (the reference), a block-engine
// CPU driven by Run, a CPU driven by Step to each slice's budget and a
// CPU driven by RunUntil with a predicate that never holds. Every
// observable piece of state — registers, I/O, SRAM, PC, cycle count,
// sleep state, interrupt latches and faults — must match after every
// slice, and the Step and RunUntil CPUs must never execute a
// translated block. Rounds repeat the image so entry PCs cross the
// heat threshold and later rounds execute translated blocks; the plan
// byte toggles interrupts between slices, an I/O write hook that
// raises an interrupt mid-block, and a mid-corpus flash rewrite with
// invalidation of a byte range whose offset and length are fuzzed (and
// folded into the image), so mid-page and page-straddling rewrites are
// held to the interpreter, which decodes straight from flash.
func FuzzBlockExec(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x00, 0x00}, []byte{1, 2, 3}, byte(0), uint16(0), uint16(63))
	// ldi r16,0x42 ; ldi r17,1 ; add r16,r17 ; rjmp .-8
	f.Add([]byte{0x02, 0xE4, 0x11, 0xE0, 0x01, 0x0F, 0xFC, 0xCF}, []byte{0xFF}, byte(1), uint16(0), uint16(63))
	// sei ; out 0x20,r16 ; nop ; rjmp .-8 (hook + SEI delay window)
	f.Add([]byte{0x78, 0x94, 0x00, 0xB9, 0x00, 0x00, 0xFC, 0xCF}, []byte{0x80}, byte(3), uint16(0), uint16(63))
	// push r0 x3 ; ret (stack traffic, PopPC of garbage)
	f.Add([]byte{0x0F, 0x92, 0x0F, 0x92, 0x0F, 0x92, 0x08, 0x95}, []byte{7}, byte(2), uint16(0), uint16(63))
	// cp/cpc chain into brbs (flag liveness across a branch)
	f.Add([]byte{0x01, 0x17, 0x12, 0x07, 0x11, 0xF0, 0xFC, 0xCF}, []byte{9, 9, 1}, byte(5), uint16(0), uint16(63))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, []byte{}, byte(8), uint16(0), uint16(5))
	// 0x81 × inc r16 ; rjmp to 0: the loop's last block starts on page 0
	// and ends on page 1, so rewriting only the word at byte 0x100 must
	// invalidate it.
	straddle := bytes.Repeat([]byte{0x03, 0x95}, 0x81)
	straddle = append(straddle, 0x7E, 0xCF)
	f.Add(straddle, []byte{}, byte(8), uint16(0x100), uint16(1))
	// lds r20,0x0400 with its opcode at byte 0xFE and its operand at
	// 0x100, preceded by nops and followed by rjmp to 0: rewriting only
	// the operand word must invalidate the block holding the opcode.
	lds := bytes.Repeat([]byte{0x00, 0x00}, 0x7F)
	lds = append(lds, 0x40, 0x91, 0x00, 0x04, 0x7E, 0xCF)
	f.Add(lds, []byte{}, byte(8), uint16(0x100), uint16(1))

	f.Fuzz(func(t *testing.T, image, regs []byte, plan byte, off, n uint16) {
		if len(image) == 0 {
			return
		}
		if len(image) > 2048 {
			image = image[:2048]
		}
		hookAddr := uint16(IOBase + int(plan&0x3F))
		budgets := []uint64{1, 3, 17, 151, 1024, 4096}

		mk := func(force bool) *CPU {
			c := New()
			c.ForceInterpreter = force
			if err := c.LoadFlash(image); err != nil {
				t.Fatal(err)
			}
			if plan&2 != 0 {
				c.HookWrite(hookAddr, func(byte) { c.RaiseInterrupt(VectorTimer0Ovf) })
			}
			if plan&4 != 0 {
				c.HookRead(hookAddr, func(cur byte) byte { return cur ^ 0x5A })
			}
			return c
		}
		ref := mk(true)
		never := func(*CPU) bool { return false }
		legs := []struct {
			name string
			c    *CPU
			run  func(c *CPU, budget uint64)
		}{
			{"block", mk(false), func(c *CPU, budget uint64) { c.Run(budget) }},
			{"step", mk(false), func(c *CPU, budget uint64) {
				for end := c.Cycles + budget; c.Cycles < end; {
					if err := c.Step(); err == ErrSleeping && !c.Sleeping {
						t.Fatalf("Step returned ErrSleeping on an awake core")
					} else if err != nil && err != ErrSleeping {
						return
					}
				}
			}},
			{"until", mk(false), func(c *CPU, budget uint64) { c.RunUntil(budget, never) }},
		}

		seed := func(c *CPU) {
			c.Reset()
			for i := 0; i < len(regs) && i < 32; i++ {
				c.Data[i] = regs[i]
			}
			if len(regs) > 0 {
				c.SetSREG(regs[0])
			}
		}
		state := func(c *CPU) string {
			return fmt.Sprintf("pc=%d cyc=%d sleep=%v supp=%v pend=%d fault=%+v",
				c.PC, c.Cycles, c.Sleeping, c.intSuppress, c.pendingInts, c.Fault())
		}

		all := []*CPU{ref}
		for _, l := range legs {
			all = append(all, l.c)
		}

		for round := 0; round < 6; round++ {
			for _, c := range all {
				seed(c)
			}
			if plan&8 != 0 && round == 3 {
				// Mid-corpus reprogramming, as MAVR's re-randomizer
				// does: every CPU rewrites and invalidates identically,
				// so stale translations must retranslate.
				lo := int(off) % len(image)
				hi := lo + 1 + int(n)%(len(image)-lo)
				for _, c := range all {
					for i := lo; i < hi; i++ {
						c.Flash[i] ^= 0xA5
					}
					c.InvalidateFlash(uint32(lo), uint32(hi-lo))
				}
			}
			for s, budget := range budgets {
				ref.Run(budget)
				for _, l := range legs {
					l.run(l.c, budget)
					if rs, ls := state(ref), state(l.c); rs != ls {
						t.Fatalf("round %d slice %d (budget %d): interp %s != %s %s", round, s, budget, rs, l.name, ls)
					}
					if !bytes.Equal(ref.Data, l.c.Data) {
						for i := range ref.Data {
							if ref.Data[i] != l.c.Data[i] {
								t.Fatalf("round %d slice %d: data[0x%04X] interp %02X != %s %02X",
									round, s, i, ref.Data[i], l.name, l.c.Data[i])
							}
						}
					}
				}
				if plan&1 != 0 {
					for _, c := range all {
						c.RaiseInterrupt(VectorTimer0Ovf)
					}
				}
			}
		}
		for _, l := range legs {
			if st := l.c.TranslationStats(); l.name != "block" && (st.Execs != 0 || st.Translated != 0) {
				t.Fatalf("%s entered the block engine: %+v", l.name, st)
			}
		}
	})
}
