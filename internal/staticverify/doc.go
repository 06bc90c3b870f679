// Package staticverify proves MAVR-randomized firmware images correct
// before they are ever flashed. The rewriter in internal/core moves
// function blocks and patches every encoded control transfer and
// function pointer; a single missed patch bricks the board or — worse —
// leaves a stable gadget an attacker can reuse across randomizations
// (paper §V-B, §VI-B3). Running the image in the simulator only
// exercises the paths the workload happens to take; this package checks
// all of them statically.
//
// Three passes, all built on internal/avr's decoder:
//
//   - CFG recovery (Recover): a conservative control-flow graph and
//     call graph of an image, function by function. "Conservative" on
//     AVR means: every instruction inside a function symbol's extent is
//     decoded linearly (AVR instructions are 1 or 2 words, streams
//     cannot overlap), direct edges (jmp/call/rjmp/rcall/brbs/brbc and
//     the skip instructions) are recovered exactly, and indirect edges
//     (ijmp/icall/eijmp/eicall) are over-approximated by the full entry
//     set — every function start plus every fixed low-flash stub — since
//     the data-section pointer tables are the only sanctioned sources
//     of indirect targets. A function containing spm is self-modifying
//     and reported unverifiable rather than silently passed.
//
//   - Patch-completeness diff: proves that every direct transfer,
//     interrupt-vector entry and tabled function pointer was remapped
//     to exactly its relocated target, with a conditional branch's
//     condition unchanged, and that nothing else changed, data past
//     the code region included. It walks an index of the original
//     image's direct transfers: the randomized image is decoded only
//     at those sites, the words between them are compared byte for
//     byte, and so is the data between the pointer slots. Any
//     unpatched, mispatched or dangling edge, a transfer or tabled
//     pointer onto a jmp/call's rewritten target word (a vector is a
//     walked transfer), and any changed data byte is a
//     structured Finding; a layout whose relocated blocks do not tile
//     the code region is one finding before any walk runs.
//
//   - Residual gadget audit (AuditGadgets): the randomized image's
//     gadget census, reporting gadget addresses that survive
//     randomization unchanged — the stable-gadget condition the paper's
//     V1–V3 attacks need. internal/gadget.Scan runs on the original
//     image only; each ret of the randomized image reuses the original
//     gadget whose window (the words the gadget can span) the layout
//     maps it to, when the two windows are byte-identical, and is
//     recomputed otherwise, so the census equals a full scan for any
//     image. Survivors inside the shuffled region are per-address
//     warnings (usually a permutation fixed point); survivors in fixed
//     regions (vectors, stubs, data, calibration table) are summarized
//     as info, since they are invariants of the firmware rather than
//     rewriter defects.
//
// Base.Verify composes the three passes into a Report. A Base computes
// what depends only on the original image once (the transfer index,
// its CFG, its value-set analysis and gadget shapes) and reuses it for
// every permutation; Verify(pre, r, opts) is
// NewBase(pre, opts).Verify(r). The diff decides each outcome: a clean
// one proves the randomized image is the original relocated, so its
// report carries the original's CFG and analysis translated into its
// layout, and a defective one is reported by the diff's findings.
// CFG recovery and the analysis run on original images only.
// cmd/mavr-verify is the CLI;
// mavr-randomize runs Verify as an opt-out post-pass; the armory keeps
// one Base per cached image; and board.Master refuses to flash any
// image with error-severity findings.
package staticverify
