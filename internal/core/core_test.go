package core_test

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"mavr/internal/attack"
	"mavr/internal/core"
	"mavr/internal/firmware"
	"mavr/internal/mavlink"
)

func genImage(t *testing.T, mode firmware.ToolchainMode) *firmware.Image {
	t.Helper()
	img, err := firmware.Generate(firmware.TestApp(), mode)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func preprocess(t *testing.T, img *firmware.Image) *core.Preprocessed {
	t.Helper()
	p, err := core.Preprocess(img.ELF)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPreprocessBlocksTileRegion(t *testing.T) {
	img := genImage(t, firmware.ModeMAVR)
	p := preprocess(t, img)
	if len(p.Blocks) != img.Spec.Functions {
		t.Errorf("blocks = %d, want %d", len(p.Blocks), img.Spec.Functions)
	}
	if p.RegionStart != img.Layout.FuncRegionStart || p.RegionEnd != img.Layout.FuncRegionEnd {
		t.Errorf("region [0x%X,0x%X), want [0x%X,0x%X)",
			p.RegionStart, p.RegionEnd, img.Layout.FuncRegionStart, img.Layout.FuncRegionEnd)
	}
}

func TestPreprocessFindsDirectFunctionPointers(t *testing.T) {
	img := genImage(t, firmware.ModeMAVR)
	p := preprocess(t, img)
	// The scan must find every direct-table pointer (ground truth from
	// the generator); stub-table pointers target fixed flash and are
	// intentionally not flagged.
	found := make(map[uint32]bool)
	for _, off := range p.PtrOffsets {
		found[off] = true
	}
	for i, off := range img.PtrFlashOffsets {
		if i >= img.Layout.SchedTableLen && !found[off] { // direct-table entries
			t.Errorf("scan missed direct pointer at flash offset 0x%X", off)
		}
	}
}

func TestPrependedHexRoundTrip(t *testing.T) {
	img := genImage(t, firmware.ModeMAVR)
	p := preprocess(t, img)
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := core.ReadPreprocessed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Image, p.Image) {
		t.Error("image corrupted through prepend format")
	}
	if len(got.Blocks) != len(p.Blocks) || got.RegionStart != p.RegionStart || got.RegionEnd != p.RegionEnd {
		t.Error("block metadata corrupted")
	}
	for i := range p.Blocks {
		if got.Blocks[i] != p.Blocks[i] {
			t.Fatalf("block %d mismatch: %+v vs %+v", i, got.Blocks[i], p.Blocks[i])
		}
	}
	if len(got.PtrOffsets) != len(p.PtrOffsets) {
		t.Error("pointer offsets lost")
	}
}

func TestReadPreprocessedRejectsGarbage(t *testing.T) {
	for _, s := range []string{
		"",
		"BOGUS 1 2 3 4\n",
		"MAVR1 x 0 0 0\n",
		"MAVR1 1 0 0x0 0x10\nX foo 0 2\n",
		"MAVR1 1 0 0x0 0x10\nS foo 0 2\nnothex\n",
	} {
		if _, err := core.ReadPreprocessed(bytes.NewBufferString(s)); err == nil {
			t.Errorf("no error for %q", s)
		}
	}
}

func TestRandomizeRejectsBadPermutations(t *testing.T) {
	img := genImage(t, firmware.ModeMAVR)
	p := preprocess(t, img)
	n := len(p.Blocks)
	bad := [][]int{
		nil,
		make([]int, n-1),
		func() []int { v := identity(n); v[0] = v[1]; return v }(),
		func() []int { v := identity(n); v[0] = -1; return v }(),
	}
	for i, perm := range bad {
		if _, err := core.Randomize(p, perm); !errors.Is(err, core.ErrBadPermutation) {
			t.Errorf("case %d: want ErrBadPermutation, got %v", i, err)
		}
	}
}

func TestIdentityPermutationIsNoOp(t *testing.T) {
	img := genImage(t, firmware.ModeMAVR)
	p := preprocess(t, img)
	r, err := core.Randomize(p, identity(len(p.Blocks)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Image, p.Image) {
		t.Error("identity permutation changed the image")
	}
	if r.PatchedTransfers != 0 || r.PatchedPointers != 0 {
		t.Errorf("identity patched %d transfers, %d pointers", r.PatchedTransfers, r.PatchedPointers)
	}
}

// The central functional property: a randomized image still boots,
// flies, emits telemetry and processes MAVLink parameters.
func TestRandomizedImageStillWorks(t *testing.T) {
	img := genImage(t, firmware.ModeMAVR)
	p := preprocess(t, img)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3; trial++ {
		r, err := core.Randomize(p, core.Permutation(rng, len(p.Blocks)))
		if err != nil {
			t.Fatal(err)
		}
		if r.PatchedTransfers == 0 {
			t.Error("randomization patched nothing")
		}
		sim, err := attack.NewSim(r.Image)
		if err != nil {
			t.Fatal(err)
		}
		ps := &mavlink.ParamSet{ParamID: "RATE"}
		payload := ps.Marshal()
		payload[0] = 0xAB
		fr := &mavlink.Frame{MsgID: mavlink.MsgIDParamSet, Payload: payload}
		if f := sim.Deliver(fr, 300_000); f != nil {
			t.Fatalf("trial %d: randomized firmware faulted: %v", trial, f)
		}
		if got := sim.CPU.Data[firmware.AddrParamVal]; got != 0xAB {
			t.Errorf("trial %d: param value 0x%02X, want 0xAB", trial, got)
		}
		if len(sim.TX()) < firmware.PulseSize {
			t.Errorf("trial %d: no telemetry from randomized firmware", trial)
		}
	}
}

// §VII-A effectiveness: the stealthy attack built against the
// unprotected binary fails on the randomized one.
func TestStaleAttackFailsOnRandomizedImage(t *testing.T) {
	img := genImage(t, firmware.ModeMAVR)
	a, err := attack.Analyze(img.ELF)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := attack.BuildV2(a, attack.GyroCfgWrite(0x55))
	if err != nil {
		t.Fatal(err)
	}
	p := preprocess(t, img)
	rng := rand.New(rand.NewSource(7))
	succeeded := 0
	for trial := 0; trial < 5; trial++ {
		r, err := core.Randomize(p, core.Permutation(rng, len(p.Blocks)))
		if err != nil {
			t.Fatal(err)
		}
		sim, err := attack.NewSim(r.Image)
		if err != nil {
			t.Fatal(err)
		}
		fault := sim.Deliver(attack.Frame(payload), 300_000)
		if fault == nil && sim.CPU.Data[firmware.AddrGyroCfg] == 0x55 {
			succeeded++
		}
	}
	if succeeded > 0 {
		t.Errorf("stale stealthy attack succeeded on %d/5 randomized layouts", succeeded)
	}
}

// §VI-B1: the stock-toolchain binary (call prologues + relaxation) is
// not safely randomizable: either patching fails (relaxed rcall out of
// range) or the shuffled binary misbehaves at runtime because of the
// LDI-encoded return points the patcher cannot see.
func TestStockModeNotSafelyRandomizable(t *testing.T) {
	img := genImage(t, firmware.ModeStock)
	p := preprocess(t, img)
	rng := rand.New(rand.NewSource(3))
	brokeSomehow := false
	for trial := 0; trial < 3 && !brokeSomehow; trial++ {
		r, err := core.Randomize(p, core.Permutation(rng, len(p.Blocks)))
		if err != nil {
			brokeSomehow = true // patch-time failure
			break
		}
		sim, err := attack.NewSim(r.Image)
		if err != nil {
			t.Fatal(err)
		}
		if f := sim.RunCycles(3_000_000); f != nil {
			brokeSomehow = true // runtime failure
		}
	}
	if !brokeSomehow {
		t.Error("stock-toolchain image survived randomization — the paper's toolchain constraints would be unnecessary")
	}
}

func TestEntropyBitsMatchesPaper(t *testing.T) {
	// §VIII-B: 800 symbols -> 6567 bits of entropy.
	got := core.EntropyBits(800)
	if math.Abs(got-6567) > 1.5 {
		t.Errorf("EntropyBits(800) = %.1f, want ~6567", got)
	}
	// Sanity: log2(3!) ~ 2.585.
	if math.Abs(core.EntropyBits(3)-math.Log2(6)) > 1e-9 {
		t.Error("EntropyBits(3) wrong")
	}
}

func TestExpectedAttemptsModels(t *testing.T) {
	// n=3: N=6, fixed -> 3.5, re-randomized -> 6.
	fixed, _ := core.ExpectedAttemptsFixed(3).Float64()
	if fixed != 3.5 {
		t.Errorf("fixed model = %v, want 3.5", fixed)
	}
	rer, _ := core.ExpectedAttemptsRerandomized(3).Float64()
	if rer != 6 {
		t.Errorf("re-randomized model = %v, want 6", rer)
	}
}

func TestBruteForceSimulationMatchesModels(t *testing.T) {
	fixed := core.SimulateBruteForceFixed(11, 4, 4000)
	if rel := math.Abs(fixed.MeanAttempts-fixed.ModelAttempts) / fixed.ModelAttempts; rel > 0.06 {
		t.Errorf("fixed brute force mean %.2f vs model %.2f (rel err %.3f)",
			fixed.MeanAttempts, fixed.ModelAttempts, rel)
	}
	rer := core.SimulateBruteForceRerandomized(11, 4, 4000)
	if rel := math.Abs(rer.MeanAttempts-rer.ModelAttempts) / rer.ModelAttempts; rel > 0.08 {
		t.Errorf("re-randomized brute force mean %.2f vs model %.2f (rel err %.3f)",
			rer.MeanAttempts, rer.ModelAttempts, rel)
	}
	// MAVR's re-randomization must roughly double the attacker's work.
	if rer.MeanAttempts < fixed.MeanAttempts*1.5 {
		t.Errorf("re-randomization did not increase attacker effort: %.2f vs %.2f",
			rer.MeanAttempts, fixed.MeanAttempts)
	}
}

// Property: for random permutations, every block's bytes are found
// verbatim at its recorded new location.
func TestBlocksMoveIntact(t *testing.T) {
	img := genImage(t, firmware.ModeMAVR)
	p := preprocess(t, img)
	rng := rand.New(rand.NewSource(21))
	f := func(seed int64) bool {
		r, err := core.Randomize(p, core.Permutation(rand.New(rand.NewSource(seed)), len(p.Blocks)))
		if err != nil {
			return false
		}
		// Pick a few blocks and compare contents modulo patched words.
		for trial := 0; trial < 10; trial++ {
			i := rng.Intn(len(p.Blocks))
			b := p.Blocks[i]
			oldBytes := p.Image[b.Start:b.End()]
			newBytes := r.Image[r.NewStart[i] : r.NewStart[i]+b.Size]
			if len(oldBytes) != len(newBytes) {
				return false
			}
			// Sizes match and at least half the bytes should be
			// identical (patches only touch transfer instructions).
			same := 0
			for j := range oldBytes {
				if oldBytes[j] == newBytes[j] {
					same++
				}
			}
			if same*2 < len(oldBytes) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}

func TestBlockIndexBinarySearch(t *testing.T) {
	img := genImage(t, firmware.ModeMAVR)
	p := preprocess(t, img)
	if got := p.BlockIndex(p.RegionStart - 2); got != -1 {
		t.Errorf("address below region mapped to block %d", got)
	}
	if got := p.BlockIndex(p.RegionEnd); got != -1 {
		t.Errorf("address at region end mapped to block %d", got)
	}
	for i, b := range p.Blocks {
		if got := p.BlockIndex(b.Start); got != i {
			t.Fatalf("BlockIndex(start of %d) = %d", i, got)
		}
		if got := p.BlockIndex(b.End() - 1); got != i {
			t.Fatalf("BlockIndex(end-1 of %d) = %d", i, got)
		}
	}
}

func identity(n int) []int {
	v := make([]int, n)
	for i := range v {
		v[i] = i
	}
	return v
}

// Applying a permutation and then its inverse restores the original
// image bit for bit — the patcher is lossless (every jmp/call/rjmp/
// rcall/branch/pointer rewrite is exactly invertible).
func TestRandomizeInverseRestoresOriginal(t *testing.T) {
	img := genImage(t, firmware.ModeMAVR)
	p := preprocess(t, img)
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 3; trial++ {
		perm := core.Permutation(rng, len(p.Blocks))
		r, err := core.Randomize(p, perm)
		if err != nil {
			t.Fatal(err)
		}
		// Build the preprocessed view of the randomized image: the same
		// blocks at their new starts (sorted by address, as a fresh
		// symbol-table extraction would see them).
		type placed struct {
			orig  int
			start uint32
		}
		order := make([]placed, len(p.Blocks))
		for orig := range p.Blocks {
			order[orig] = placed{orig, r.NewStart[orig]}
		}
		sort.Slice(order, func(i, j int) bool { return order[i].start < order[j].start })
		p2 := &core.Preprocessed{
			Image:       r.Image,
			RegionStart: p.RegionStart,
			RegionEnd:   p.RegionEnd,
			PtrOffsets:  p.PtrOffsets,
		}
		newIndex := make([]int, len(p.Blocks)) // original block -> index in p2
		for i, pl := range order {
			b := p.Blocks[pl.orig]
			p2.Blocks = append(p2.Blocks, core.Block{Name: b.Name, Start: pl.start, Size: b.Size})
			newIndex[pl.orig] = i
		}
		// The inverse permutation lays blocks back in original order.
		inverse := make([]int, len(p.Blocks))
		for k := range p.Blocks { // k-th block in original layout
			inverse[k] = newIndex[k]
		}
		restored, err := core.Randomize(p2, inverse)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(restored.Image, p.Image) {
			for i := range p.Image {
				if restored.Image[i] != p.Image[i] {
					t.Fatalf("trial %d: inverse failed first at byte 0x%X: 0x%02X vs 0x%02X",
						trial, i, restored.Image[i], p.Image[i])
				}
			}
		}
	}
}

// Regression: on the full-size applications, randomization across many
// permutations must never corrupt non-pointer data (mission
// coordinates whose values happen to look like function addresses) or
// overflow 16-bit pointers. This failed before the pointer scan was
// restricted to validated pointer-table objects.
func TestBigAppRandomizeManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size generation")
	}
	img, err := firmware.Generate(firmware.Arduplane(), firmware.ModeMAVR)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Preprocess(img.ELF)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the waypoint bytes inside the flash data-load image.
	wpFlash := img.ELF.DataLMA + uint32(img.Layout.WaypointsAddr) - uint32(img.ELF.DataAddr)
	wpLen := uint32(firmware.WaypointCount * firmware.WaypointSize)
	orig := append([]byte(nil), img.Flash[wpFlash:wpFlash+wpLen]...)

	rng := rand.New(rand.NewSource(0xBEEF))
	for trial := 0; trial < 25; trial++ {
		r, err := core.Randomize(p, core.Permutation(rng, len(p.Blocks)))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(r.Image[wpFlash:wpFlash+wpLen], orig) {
			t.Fatalf("trial %d: mission waypoints corrupted by pointer patching", trial)
		}
	}
}

func TestRandomizedMovesAndSymbols(t *testing.T) {
	img := genImage(t, firmware.ModeMAVR)
	p := preprocess(t, img)
	r, err := core.Randomize(p, core.Permutation(rand.New(rand.NewSource(4)), len(p.Blocks)))
	if err != nil {
		t.Fatal(err)
	}
	moves := r.Moves(p)
	if len(moves) != len(p.Blocks) {
		t.Fatalf("%d move lines for %d blocks", len(moves), len(p.Blocks))
	}
	syms := r.Symbols(p)
	if len(syms) != len(p.Blocks) {
		t.Fatalf("%d symbols", len(syms))
	}
	// Symbols tile the region in the new order.
	cursor := p.RegionStart
	for i, s := range syms {
		if s.Value != cursor {
			t.Fatalf("symbol %d (%s) at 0x%X, want 0x%X", i, s.Name, s.Value, cursor)
		}
		cursor += s.Size
	}
	if cursor != p.RegionEnd {
		t.Fatalf("symbols end at 0x%X, want 0x%X", cursor, p.RegionEnd)
	}
}

// Pointer-table extraction: the MAVR testapp dispatches through a
// validated function-pointer table in .data, so Preprocess must record
// it with sane geometry — table entries sit inside the flash image and
// each initial word validates as a code pointer.
func TestPreprocessExtractsPointerTables(t *testing.T) {
	img := genImage(t, firmware.ModeMAVR)
	p := preprocess(t, img)
	if len(p.PtrTables) == 0 {
		t.Fatal("no pointer tables extracted; the scheduler table lives in .data")
	}
	for _, tab := range p.PtrTables {
		if tab.Words == 0 {
			t.Fatalf("table %s has zero entries", tab.Name)
		}
		end := tab.FlashOff + 2*tab.Words
		if end > uint32(len(p.Image)) {
			t.Fatalf("table %s initializer [0x%X, 0x%X) escapes the image", tab.Name, tab.FlashOff, end)
		}
		for w := uint32(0); w < tab.Words; w++ {
			off := tab.FlashOff + 2*w
			target := (uint32(p.Image[off]) | uint32(p.Image[off+1])<<8) * 2
			if target >= uint32(len(p.Image)) {
				t.Fatalf("table %s word %d points at 0x%X, outside the image", tab.Name, w, target)
			}
		}
	}
	for i := 1; i < len(p.PtrTables); i++ {
		if p.PtrTables[i-1].DataAddr >= p.PtrTables[i].DataAddr {
			t.Fatal("tables not sorted by data address")
		}
	}
}

// The "T" table records survive the prepended-HEX round trip, and a
// malformed T line is rejected rather than silently dropped.
func TestPrependedHexRoundTripsPointerTables(t *testing.T) {
	img := genImage(t, firmware.ModeMAVR)
	p := preprocess(t, img)
	if len(p.PtrTables) == 0 {
		t.Fatal("need at least one table to round-trip")
	}
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := core.ReadPreprocessed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.PtrTables) != len(p.PtrTables) {
		t.Fatalf("round-tripped %d tables, want %d", len(got.PtrTables), len(p.PtrTables))
	}
	for i := range p.PtrTables {
		if got.PtrTables[i] != p.PtrTables[i] {
			t.Fatalf("table %d mismatch: %+v vs %+v", i, got.PtrTables[i], p.PtrTables[i])
		}
	}

	for _, s := range []string{
		"MAVR1 0 0 0x0 0x10\nT\n",
		"MAVR1 0 0 0x0 0x10\nT tbl 0xZZ 0x0 4\n",
		"MAVR1 0 0 0x0 0x10\nT tbl 0x100 0x0\n",
	} {
		if _, err := core.ReadPreprocessed(bytes.NewBufferString(s)); err == nil {
			t.Errorf("malformed T line accepted: %q", s)
		}
	}
}
