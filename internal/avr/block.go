package avr

// Block-translated threaded-code execution engine.
//
// The interpreter pays full dispatch per instruction: Run re-tests the
// fault/interrupt/sleep state, re-checks the cycle budget, decodes the
// instruction from flash and branches through exec's big switch. This
// layer removes that constant factor for straight-line code:
// instructions are grouped into basic blocks (ending at any control
// transfer, skip, SPM, SLEEP, BREAK, invalid opcode, flash boundary, or
// a length cap), each block is translated once into a chain of
// specialized Go closures (translate.go), and Run executes whole blocks
// at a time.
//
// Semantics are bit-identical to the interpreter — the golden-trace
// conformance suite and FuzzBlockExec hold the engine to that:
//
//   - Cycle accounting is batched: the block's straight-line cycle sum
//     is added once at entry, and a block is only entered when its
//     worst-case cost fits the remaining Run budget, so the engine
//     stops at exactly the same instruction boundary as the
//     interpreter. Any early exit (fault, interrupt arrival) rolls
//     Cycles back to the precomputed per-instruction value.
//   - Interrupts: a block is only entered with no interrupt pending.
//     Pending state can change mid-block solely through I/O write
//     hooks, so translation marks every instruction that follows a
//     hook-capable one with the interpreter's pre-instruction check
//     (fault / SEI-delay / pending). When the check fires, the block
//     bails to the interpreter at that exact PC.
//   - Invalidation: translated blocks are the emulator's only code
//     cache, so they carry the whole contract that flash writes never
//     leave stale code running (MAVR's defense rewrites the
//     application's flash under it). LoadFlash, SPM page erase/write
//     and InvalidateFlash bump per-flash-page generation counters; a
//     block stamps the (at most two) pages its bytes cover, re-validates
//     them on entry and is retranslated when stale.
//
// The engine turns itself off — falling back to the plain interpreter
// in the same loop — whenever OnStep is set (tracing observes every
// instruction), when ForceInterpreter is set (MAVR_AVR_INTERP=1), for
// RunUntil and Step (their predicate sees every instruction boundary),
// while an interrupt is pending but unserviceable, and for blocks that
// have not yet run hotThreshold times.

import "os"

const (
	// hotThreshold is how many times a PC must be entered before it is
	// translated; colder entries run interpreted.
	hotThreshold = 4
	// maxBlockInstrs caps block length so a block spans at most two
	// SPM pages (48 instructions ≤ 192 flash bytes < SPMPageSize) and
	// the entry cycle gate stays tight.
	maxBlockInstrs = 48
	// heatPoison marks an entry PC whose instruction has no translation;
	// Run interprets it forever instead of re-attempting.
	heatPoison = 0xFF
	// flashPages is the number of SPM-page-sized generation buckets.
	flashPages = FlashSize / SPMPageSize
)

// forceInterpEnv is the CI/tooling escape hatch: MAVR_AVR_INTERP=1
// forces every CPU created afterwards to use the plain interpreter.
var forceInterpEnv = os.Getenv("MAVR_AVR_INTERP") == "1"

// BlockStats counts block-engine activity for perf tooling (the
// mavrbench avr.* per-layer metrics).
type BlockStats struct {
	Translated  uint64 // blocks translated (including retranslations)
	Invalidated uint64 // stale cached blocks dropped on entry
	Execs       uint64 // block executions
	Bails       uint64 // mid-block fallbacks to the interpreter
	InterpSteps uint64 // instructions executed via the interpreter
}

// TranslationStats returns the CPU's block-engine counters.
func (c *CPU) TranslationStats() BlockStats { return c.blkStats }

// blockStep is one translated instruction.
type blockStep struct {
	fn func(*CPU)
	// pc is the instruction's word address: where the interpreter
	// resumes if the pre-step check bails out of the block.
	pc uint32
	// fixup is the block's straight-line cycle sum minus the cycles of
	// all steps before this one. Subtracting it from Cycles on a bail
	// rewinds the batched entry accounting to this exact boundary.
	fixup uint64
	// check replicates the interpreter's pre-instruction tests. It is
	// set only on steps following a hook-capable (impure) instruction —
	// the only place fault/pending/SEI-delay state can change inside a
	// block.
	check bool
}

// block is a translated basic block, cached per entry PC.
type block struct {
	// fns is the fast path for pure blocks (no step needs checks).
	fns []func(*CPU)
	// steps is the checked path (nil when fns is used).
	steps []blockStep
	// body is the straight-line cycle sum batched at entry (the
	// terminator accounts for its own, possibly variable, cycles).
	body uint64
	// cycles is the worst-case whole-block cost; Run only enters the
	// block when this fits the remaining budget.
	cycles uint64
	// pages/gens are the covering flash pages and the generation they
	// had at translation time.
	pages  [2]uint32
	gens   [2]uint32
	npages int
}

// blocksEnabled reports whether Run may use translated blocks.
func (c *CPU) blocksEnabled() bool {
	return c.OnStep == nil && !c.ForceInterpreter
}

// blockFor returns the valid translation entered at pc, translating it
// if the entry is hot, or nil while it is cold.
func (c *CPU) blockFor(pc uint32) *block {
	if c.blocks == nil {
		c.blocks = make([]*block, FlashWords)
		c.blockHeat = make([]uint8, FlashWords)
		c.pageGen = make([]uint32, flashPages)
	}
	if b := c.blocks[pc]; b != nil {
		for i := 0; i < b.npages; i++ {
			if c.pageGen[b.pages[i]] != b.gens[i] {
				c.blkStats.Invalidated++
				return c.retranslate(pc)
			}
		}
		return b
	}
	switch h := c.blockHeat[pc]; {
	case h == heatPoison:
		return nil
	case h < hotThreshold:
		c.blockHeat[pc] = h + 1
		return nil
	}
	return c.retranslate(pc)
}

func (c *CPU) retranslate(pc uint32) *block {
	b := c.translate(pc)
	c.blocks[pc] = b
	if b == nil {
		c.blockHeat[pc] = heatPoison
	}
	return b
}

// InvalidateFlash marks n flash bytes starting at byte address start as
// modified: every translated block whose bytes overlap them is
// retranslated on its next entry. Code that writes c.Flash directly
// (the board's bootloader installation, external programmers) must call
// this; the CPU's own flash channels (LoadFlash, SPM) invalidate
// automatically. The interpreter decodes from flash and needs nothing.
func (c *CPU) InvalidateFlash(start, n uint32) {
	if c.pageGen == nil || n == 0 {
		return
	}
	hi := (start + n - 1) / SPMPageSize
	if hi >= flashPages {
		hi = flashPages - 1
	}
	for p := start / SPMPageSize; p <= hi; p++ {
		c.pageGen[p]++
	}
}

// invalidateAllFlash invalidates every translated block.
func (c *CPU) invalidateAllFlash() {
	for i := range c.pageGen {
		c.pageGen[i]++
	}
}

// execBlock runs one translated block. The caller has already
// performed the interpreter's per-instruction checks for the first
// instruction and verified that the block's worst-case cycle cost fits
// the remaining budget.
func (c *CPU) execBlock(b *block) {
	c.Cycles += b.body
	if b.fns != nil {
		for _, fn := range b.fns {
			fn(c)
		}
		return
	}
	steps := b.steps
	for i := range steps {
		s := &steps[i]
		if s.check {
			// The previous step was hook-capable: replicate the
			// interpreter's pre-instruction tests at this boundary. All
			// three exits rewind the batched cycles to this instruction
			// boundary and leave PC there, exactly where the
			// interpreter would stand.
			if c.fault != nil {
				c.Cycles -= s.fixup
				c.PC = s.pc
				return
			}
			if c.intSuppress {
				if c.pendingInts != 0 {
					// An interrupt arrived while the SEI delay is armed:
					// bail WITHOUT consuming the delay so the outer loop
					// consumes it, interprets this one instruction, and
					// then dispatches — the interpreter's exact order.
					c.Cycles -= s.fixup
					c.PC = s.pc
					c.blkStats.Bails++
					return
				}
				c.intSuppress = false
			} else if c.pendingInts != 0 {
				// An interrupt arrived mid-block: let the outer loop
				// dispatch it before this instruction.
				c.Cycles -= s.fixup
				c.PC = s.pc
				c.blkStats.Bails++
				return
			}
		}
		s.fn(c)
	}
}
