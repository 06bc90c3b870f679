package core_test

import (
	"bytes"
	"math/rand"
	"testing"

	"mavr/internal/core"
	"mavr/internal/firmware"
)

// StreamRandomize must stream exactly the image Randomize returns for
// any permutation — the streaming master and the host-side tools share
// one patching path, and Randomize only adds the output buffer.
func TestStreamRandomizeMatchesRandomize(t *testing.T) {
	img := genImage(t, firmware.ModeMAVR)
	p := preprocess(t, img)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		perm := core.Permutation(rng, len(p.Blocks))
		want, err := core.Randomize(p, perm)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		got, err := core.StreamRandomize(p, perm, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want.Image) {
			for i := range want.Image {
				if buf.Bytes()[i] != want.Image[i] {
					t.Fatalf("trial %d: first divergence at byte 0x%X: 0x%02X vs 0x%02X",
						trial, i, buf.Bytes()[i], want.Image[i])
				}
			}
			t.Fatalf("trial %d: length mismatch %d vs %d", trial, buf.Len(), len(want.Image))
		}
		if got.PatchedTransfers != want.PatchedTransfers || got.PatchedPointers != want.PatchedPointers {
			t.Errorf("trial %d: patch counts differ: %d/%d vs %d/%d", trial,
				got.PatchedTransfers, got.PatchedPointers,
				want.PatchedTransfers, want.PatchedPointers)
		}
	}
}

func TestStreamRandomizeRejectsBadPermutation(t *testing.T) {
	img := genImage(t, firmware.ModeMAVR)
	p := preprocess(t, img)
	var buf bytes.Buffer
	if _, err := core.StreamRandomize(p, make([]int, 3), &buf); err == nil {
		t.Error("bad permutation accepted")
	}
}

// failWriter fails after n bytes, exercising the error paths.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, bytes.ErrTooLarge
	}
	f.n -= len(p)
	return len(p), nil
}

func TestStreamRandomizePropagatesWriteErrors(t *testing.T) {
	img := genImage(t, firmware.ModeMAVR)
	p := preprocess(t, img)
	perm := identity(len(p.Blocks))
	for _, limit := range []int{0, 100, 2000} {
		if _, err := core.StreamRandomize(p, perm, &failWriter{n: limit}); err == nil {
			t.Errorf("write failure at %d bytes not propagated", limit)
		}
	}
}
