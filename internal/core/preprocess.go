// Package core implements the MAVR defense (paper §V-§VI): the
// preprocessing phase that extracts function blocks and function
// pointers from an ELF binary, the fine-grained randomization that
// shuffles function blocks, the jump/call/pointer patching that keeps
// the shuffled binary executable, and the security models (entropy,
// brute-force effort) of §V-D and §VIII-B.
package core

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"mavr/internal/elfobj"
	"mavr/internal/hexfile"
)

// Block is one relocatable function block (byte addresses).
type Block struct {
	Name  string
	Start uint32
	Size  uint32
}

// End returns the first byte after the block.
func (b Block) End() uint32 { return b.Start + b.Size }

// PtrTable is one validated function-pointer table in the .data load
// image: a data OBJECT symbol whose every word entry validated as a
// code pointer (a function start or a fixed-region stub/vector slot).
// DataAddr is the table's data-space address once startup has copied
// .data into RAM; FlashOff is the byte offset of its initial values in
// the flash load image; Words counts its 16-bit entries. The static
// verifier's value-set analysis uses these records to resolve indirect
// calls that provably index a validated table.
type PtrTable struct {
	Name     string
	DataAddr uint32
	FlashOff uint32
	Words    uint32
}

// Preprocessed is the artifact the host-side preprocessing phase
// produces and uploads to the external flash chip (paper §VI-B2): the
// flat binary plus the symbol information MAVR needs at runtime.
type Preprocessed struct {
	// Image is the flat flash image.
	Image []byte
	// Blocks are the function blocks sorted by start address, exactly
	// tiling [RegionStart, RegionEnd).
	Blocks []Block
	// RegionStart and RegionEnd delimit the shuffleable region. Code
	// below RegionStart (interrupt vectors, dispatch stubs) is fixed
	// but patched; bytes at RegionEnd and above (the .data load image,
	// constant tables) are fixed and opaque.
	RegionStart uint32
	RegionEnd   uint32
	// PtrOffsets are flash byte offsets of 16-bit function pointers
	// (word addresses) that must be patched when their targets move.
	PtrOffsets []uint32
	// PtrTables records the validated pointer tables the PtrOffsets
	// were found in, sorted by DataAddr.
	PtrTables []PtrTable

	// relocs is the relocation table Preprocess and ReadPreprocessed
	// build for StreamRandomize (nil on a handle built by hand).
	relocs *relocTable
}

// Preprocessing errors.
var (
	ErrNoFunctions  = errors.New("core: binary has no function symbols")
	ErrNotTiling    = errors.New("core: function blocks do not tile the text region")
	ErrBadPrepended = errors.New("core: malformed preprocessed image")
)

// Preprocess parses an AVR ELF executable and extracts everything the
// MAVR master processor needs: the ordered function-block list and the
// locations of function pointers in the binary's data load image.
func Preprocess(elf *elfobj.File) (*Preprocessed, error) {
	funcs := elf.FuncSymbols()
	if len(funcs) == 0 {
		return nil, ErrNoFunctions
	}
	p := &Preprocessed{Image: append([]byte(nil), elf.Text...)}
	for _, s := range funcs {
		p.Blocks = append(p.Blocks, Block{Name: s.Name, Start: s.Value, Size: s.Size})
	}
	sort.Slice(p.Blocks, func(i, j int) bool { return p.Blocks[i].Start < p.Blocks[j].Start })
	p.RegionStart = p.Blocks[0].Start
	p.RegionEnd = p.Blocks[len(p.Blocks)-1].End()

	// Scan the .data load image for function pointers (vtables, dispatch
	// arrays) that must be patched when their targets move (paper
	// §VI-B2). Scanning every data word for values that look like
	// function starts false-positives on ordinary data (e.g. mission
	// coordinates), so the scan is structured: a data OBJECT symbol is
	// treated as a pointer table only if every one of its word entries
	// validates as a code pointer — either a function start (patched
	// when the block moves) or an address in the fixed low-flash
	// stub/vector region (needs no patching).
	starts := make(map[uint32]bool, len(p.Blocks))
	for _, b := range p.Blocks {
		starts[b.Start] = true
	}
	wordAt := func(off uint32) (uint32, bool) {
		if int(off)+1 >= len(p.Image) {
			return 0, false
		}
		return uint32(p.Image[off]) | uint32(p.Image[off+1])<<8, true
	}
	for _, s := range elf.Symbols {
		if s.Kind != elfobj.SymObject || s.Size == 0 || s.Size%2 != 0 {
			continue
		}
		if s.Value < uint32(elf.DataAddr) || s.Value+s.Size > uint32(elf.DataAddr)+uint32(len(elf.Data)) {
			continue
		}
		base := elf.DataLMA + (s.Value - elf.DataAddr)
		allValid := true
		var funcEntries []uint32
		for off := base; off < base+s.Size; off += 2 {
			w, ok := wordAt(off)
			if !ok {
				allValid = false
				break
			}
			switch {
			case starts[w*2]:
				funcEntries = append(funcEntries, off)
			case w*2 < p.RegionStart:
				// fixed-region code pointer (dispatch stub): valid,
				// unpatched.
			default:
				allValid = false
			}
			if !allValid {
				break
			}
		}
		if allValid {
			p.PtrOffsets = append(p.PtrOffsets, funcEntries...)
			p.PtrTables = append(p.PtrTables, PtrTable{
				Name:     s.Name,
				DataAddr: s.Value,
				FlashOff: base,
				Words:    s.Size / 2,
			})
		}
	}
	sort.Slice(p.PtrTables, func(i, j int) bool { return p.PtrTables[i].DataAddr < p.PtrTables[j].DataAddr })
	if err := p.validate(); err != nil {
		return nil, err
	}
	p.cacheRelocs()
	return p, nil
}

// validate checks the invariants StreamRandomize relies on: the blocks
// are sorted and tile [RegionStart, RegionEnd), the region lies inside
// the image, and every function pointer and pointer table lies in the
// fixed bytes at or above RegionEnd. Both parsers call it, so a
// malformed upload is rejected when it is loaded, and StreamRandomize
// calls it again for handles built by hand.
func (p *Preprocessed) validate() error {
	end := uint64(p.RegionStart)
	for i, b := range p.Blocks {
		if uint64(b.Start) != end {
			prev := "the region start"
			if i > 0 {
				prev = strconv.Quote(p.Blocks[i-1].Name)
			}
			return fmt.Errorf("%w: %q starts at 0x%X, not at the end of %s (0x%X)",
				ErrNotTiling, b.Name, b.Start, prev, end)
		}
		end += uint64(b.Size)
	}
	if end != uint64(p.RegionEnd) {
		return fmt.Errorf("%w: blocks end at 0x%X, region at 0x%X", ErrNotTiling, end, p.RegionEnd)
	}
	size := uint64(len(p.Image))
	if uint64(p.RegionEnd) > size {
		return fmt.Errorf("core: function region ends at 0x%X past the %d-byte image", p.RegionEnd, size)
	}
	for _, off := range p.PtrOffsets {
		if off < p.RegionEnd || uint64(off)+2 > size {
			return fmt.Errorf("core: function pointer at 0x%X outside [0x%X, 0x%X)", off, p.RegionEnd, size)
		}
	}
	for _, t := range p.PtrTables {
		if t.FlashOff < p.RegionEnd || uint64(t.FlashOff)+2*uint64(t.Words) > size {
			return fmt.Errorf("core: pointer table %q outside [0x%X, 0x%X)", t.Name, p.RegionEnd, size)
		}
	}
	return nil
}

// BlockIndex returns the index of the block containing byte address
// addr via binary search (largest start <= addr, the §VI-B3 algorithm),
// or -1 if addr is outside the shuffleable region.
func (p *Preprocessed) BlockIndex(addr uint32) int {
	if addr < p.RegionStart || addr >= p.RegionEnd {
		return -1
	}
	i := sort.Search(len(p.Blocks), func(i int) bool { return p.Blocks[i].Start > addr }) - 1
	return i
}

// WriteTo serializes the preprocessed image in the format uploaded to
// the external flash chip: a symbol-table header prepended to the Intel
// HEX of the binary (paper Fig. 9).
func (p *Preprocessed) WriteTo(w io.Writer) (int64, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "MAVR1 %d %d 0x%X 0x%X\n", len(p.Blocks), len(p.PtrOffsets), p.RegionStart, p.RegionEnd)
	for _, b := range p.Blocks {
		fmt.Fprintf(&sb, "S %s 0x%X 0x%X\n", b.Name, b.Start, b.Size)
	}
	for _, off := range p.PtrOffsets {
		fmt.Fprintf(&sb, "P 0x%X\n", off)
	}
	// "T" table records postdate the MAVR1 header and are intentionally
	// not counted there: older readers that only consume the counted S/P
	// lines would choke on them anyway, while ReadPreprocessed peeks for
	// them before the HEX body (which always begins with ':').
	for _, t := range p.PtrTables {
		fmt.Fprintf(&sb, "T %s 0x%X 0x%X %d\n", t.Name, t.DataAddr, t.FlashOff, t.Words)
	}
	hex, err := hexfile.EncodeToString(p.Image)
	if err != nil {
		return 0, err
	}
	sb.WriteString(hex)
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// LoadImage parses a base firmware image in either supported container
// format into a reusable Preprocessed handle: an ELF executable (the
// toolchain artifact) or the prepended-HEX external-flash format a
// previous Preprocess emitted. The returned handle is immutable under
// Randomize, so one LoadImage call can back arbitrarily many
// permutations of the same base image — the entry point batch services
// (cmd/mavr-armory) key their content-addressed caches on.
func LoadImage(data []byte) (*Preprocessed, error) {
	if len(data) >= 4 && data[0] == 0x7F && data[1] == 'E' && data[2] == 'L' && data[3] == 'F' {
		elf, err := elfobj.Parse(data)
		if err != nil {
			return nil, err
		}
		return Preprocess(elf)
	}
	if len(data) >= 5 && string(data[:5]) == "MAVR1" {
		return ReadPreprocessed(bytes.NewReader(data))
	}
	return nil, fmt.Errorf("%w: neither ELF nor prepended-HEX", ErrBadPrepended)
}

// ReadPreprocessed parses the prepended-HEX format back.
func ReadPreprocessed(r io.Reader) (*Preprocessed, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(header)
	if len(fields) != 5 || fields[0] != "MAVR1" {
		return nil, ErrBadPrepended
	}
	nBlocks, err1 := strconv.Atoi(fields[1])
	nPtrs, err2 := strconv.Atoi(fields[2])
	regStart, err3 := strconv.ParseUint(fields[3], 0, 32)
	regEnd, err4 := strconv.ParseUint(fields[4], 0, 32)
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
		return nil, ErrBadPrepended
	}
	p := &Preprocessed{RegionStart: uint32(regStart), RegionEnd: uint32(regEnd)}
	for i := 0; i < nBlocks; i++ {
		line, err := br.ReadString('\n')
		if err != nil {
			return nil, ErrBadPrepended
		}
		f := strings.Fields(line)
		if len(f) != 4 || f[0] != "S" {
			return nil, ErrBadPrepended
		}
		start, err1 := strconv.ParseUint(f[2], 0, 32)
		size, err2 := strconv.ParseUint(f[3], 0, 32)
		if err1 != nil || err2 != nil {
			return nil, ErrBadPrepended
		}
		p.Blocks = append(p.Blocks, Block{Name: f[1], Start: uint32(start), Size: uint32(size)})
	}
	for i := 0; i < nPtrs; i++ {
		line, err := br.ReadString('\n')
		if err != nil {
			return nil, ErrBadPrepended
		}
		f := strings.Fields(line)
		if len(f) != 2 || f[0] != "P" {
			return nil, ErrBadPrepended
		}
		off, err := strconv.ParseUint(f[1], 0, 32)
		if err != nil {
			return nil, ErrBadPrepended
		}
		p.PtrOffsets = append(p.PtrOffsets, uint32(off))
	}
	for {
		peek, err := br.Peek(1)
		if err != nil {
			return nil, ErrBadPrepended
		}
		if peek[0] != 'T' {
			break
		}
		line, err := br.ReadString('\n')
		if err != nil {
			return nil, ErrBadPrepended
		}
		f := strings.Fields(line)
		if len(f) != 5 || f[0] != "T" {
			return nil, ErrBadPrepended
		}
		dataAddr, err1 := strconv.ParseUint(f[2], 0, 32)
		flashOff, err2 := strconv.ParseUint(f[3], 0, 32)
		words, err3 := strconv.ParseUint(f[4], 0, 32)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, ErrBadPrepended
		}
		p.PtrTables = append(p.PtrTables, PtrTable{
			Name:     f[1],
			DataAddr: uint32(dataAddr),
			FlashOff: uint32(flashOff),
			Words:    uint32(words),
		})
	}
	img, err := hexfile.Decode(br)
	if err != nil {
		return nil, err
	}
	p.Image = img
	if err := p.validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadPrepended, err)
	}
	p.cacheRelocs()
	return p, nil
}
