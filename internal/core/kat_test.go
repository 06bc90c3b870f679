package core_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"mavr/internal/core"
	"mavr/internal/firmware"
)

// Known answers recorded before Randomize became a wrapper of
// StreamRandomize: the SHA-256 of each profile's image randomized under
// the seed-7 permutation (mavr-verify's -seed 7), with its patch counts.
func TestRandomizeKnownAnswers(t *testing.T) {
	want := map[string]struct {
		sha                 string
		transfers, pointers int
	}{
		"testapp":    {"863a6a9411db4b89ef3922ea669213d5f886b58fc2344bb3cf92457428b1b67b", 114, 8},
		"arduplane":  {"a1bfbe5b660f92b8779c76fe91b6b4fea55dcd2570ffcfaf53bccdf0398c8982", 758, 0},
		"arducopter": {"c5ae9542c43277a08f9fb193d09a98a4d2dee04484f239f8d62cd7c7688b2f7a", 840, 0},
		"ardurover":  {"d2af5fe96fc5c9184ca18760375361e67d3a520fb6daa354813bd0432fc61515", 658, 0},
	}
	for _, spec := range append([]firmware.AppSpec{firmware.TestApp()}, firmware.Profiles()...) {
		img, err := firmware.Generate(spec, firmware.ModeMAVR)
		if err != nil {
			t.Fatal(err)
		}
		p := preprocess(t, img)
		r, err := core.Randomize(p, core.Permutation(rand.New(rand.NewSource(7)), len(p.Blocks)))
		if err != nil {
			t.Fatal(err)
		}
		w := want[spec.Name]
		if got := fmt.Sprintf("%x", sha256.Sum256(r.Image)); got != w.sha {
			t.Errorf("%s: image SHA-256 %s, want %s", spec.Name, got, w.sha)
		}
		if r.PatchedTransfers != w.transfers || r.PatchedPointers != w.pointers {
			t.Errorf("%s: patched %d transfers, %d pointers; want %d, %d",
				spec.Name, r.PatchedTransfers, r.PatchedPointers, w.transfers, w.pointers)
		}
	}
}
