package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mavr/internal/core"
	"mavr/internal/firmware"
)

// malformedPrepended returns prepended images whose headers lie about
// the 16-byte image under them: a function pointer past the image end,
// and a block extending past it. Both crashed Randomize (and with it an
// armory worker) before the parsers validated the layout.
func malformedPrepended(t testing.TB) [][]byte {
	t.Helper()
	img := make([]byte, 16)
	var out [][]byte
	for _, p := range []*core.Preprocessed{
		{Image: img, Blocks: []core.Block{{Name: "f", Start: 8, Size: 8}}, RegionStart: 8, RegionEnd: 16, PtrOffsets: []uint32{0x40}},
		{Image: img, Blocks: []core.Block{{Name: "f", Start: 8, Size: 0x38}}, RegionStart: 8, RegionEnd: 0x40},
	} {
		var b bytes.Buffer
		if _, err := p.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		out = append(out, b.Bytes())
	}
	return out
}

func TestLoadImageRejectsMalformedLayout(t *testing.T) {
	for _, b := range malformedPrepended(t) {
		if _, err := core.LoadImage(b); !errors.Is(err, core.ErrBadPrepended) {
			t.Errorf("LoadImage(%q) = %v, want ErrBadPrepended", b, err)
		}
	}
}

// FuzzLoadImage fuzzes the parse→randomize boundary: any input
// LoadImage accepts must randomize, under the identity and a seeded
// permutation, without panicking and exactly as the reference walk
// does.
func FuzzLoadImage(f *testing.F) {
	for _, spec := range append([]firmware.AppSpec{firmware.TestApp()}, firmware.Profiles()...) {
		img, err := firmware.Generate(spec, firmware.ModeMAVR)
		if err != nil {
			f.Fatal(err)
		}
		p, err := core.Preprocess(img.ELF)
		if err != nil {
			f.Fatal(err)
		}
		var b bytes.Buffer
		if _, err := p.WriteTo(&b); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	for _, b := range malformedPrepended(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := core.LoadImage(data)
		if err != nil {
			return
		}
		n := len(p.Blocks)
		checkReference(t, p, identity(n))
		checkReference(t, p, core.Permutation(rand.New(rand.NewSource(int64(len(data)))), n))
	})
}

// TestLoadImageMutatedHeaders drives the same boundary as FuzzLoadImage
// deterministically on every test run: it rewrites one number of the
// test application's prepended header at a time (HEX records are
// checksummed, so the header is where a corrupt upload slips through)
// to edge values around the image bounds.
func TestLoadImageMutatedHeaders(t *testing.T) {
	p := preprocess(t, genImage(t, firmware.ModeMAVR))
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	hexAt := strings.Index(text, "\n:") + 1
	header := strings.Split(text[:hexAt], "\n")
	size := uint64(len(p.Image))
	edges := []uint64{0, 1, 2, 3, size - 2, size - 1, size, size + 1, size + 2, 0x10000, 0xFFFFFFFE, 0xFFFFFFFF}
	rng := rand.New(rand.NewSource(1))
	accepted := 0
	for iter := 0; iter < 1000; iter++ {
		lines := append([]string(nil), header...)
		li := rng.Intn(len(lines) - 1)
		f := strings.Fields(lines[li])
		fi := 1 + rng.Intn(len(f)-1)
		v := edges[rng.Intn(len(edges))]
		if rng.Intn(2) == 0 {
			v = uint64(rng.Int63n(int64(size) * 2))
		}
		f[fi] = fmt.Sprintf("0x%X", v)
		lines[li] = strings.Join(f, " ")
		m, err := core.LoadImage([]byte(strings.Join(lines, "\n") + text[hexAt:]))
		if err != nil {
			continue
		}
		accepted++
		// An accepted layout may still fail patching (a moved block
		// boundary splits an instruction), but only with an error, and
		// only with the reference walk's.
		checkReference(t, m, core.Permutation(rng, len(m.Blocks)))
	}
	if accepted == 0 {
		t.Error("no mutated header was accepted; the test exercises nothing past the parser")
	}
}
