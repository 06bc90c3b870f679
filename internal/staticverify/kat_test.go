package staticverify_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/rand"
	"testing"

	"mavr/internal/core"
	"mavr/internal/firmware"
	"mavr/internal/staticverify"
)

// TestDefectiveReportKnownAnswers pins the reports of defective images
// byte for byte: the SHA-256 of WriteJSON followed by WriteText, for
// the test application and ArduPlane under permutation seed 7, with one
// injected defect each, under Options{} and under the armory's options
// (gadget audit and VSA). A defective report is the patch diff's
// findings and stats plus the gadget census, with a zero CFG and no
// analysis; the cached handle must render the same bytes as the
// one-shot Verify.
//
// The digests were first recorded before the two verifiers were merged
// into one. The transfer-3, pointer-0 and byte-flip entries moved once,
// when the diff began to decide every outcome alone: their reports had
// also carried the randomized image's own CFG and a fresh analysis,
// which only ever added detail to an image the diff had rejected. The
// truncated entries, which never had a graph, and ArduPlane's pointer-0
// pair, a clean report (the paper profiles tabulate their scheduler
// tasks through stubs, so ArduPlane has no patched data pointer), kept
// their first digests. None of them may be re-recorded again without a
// change that moves a report on purpose.
func TestDefectiveReportKnownAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale image in -short mode")
	}
	vsaOpts := staticverify.DefaultOptions()
	vsaOpts.VSA = true
	options := []struct {
		name string
		opts staticverify.Options
	}{{"plain", staticverify.Options{}}, {"vsa", vsaOpts}}
	defects := []struct {
		name   string
		inject func(pre *core.Preprocessed, r *core.Randomized) error
	}{
		{"transfer-3", func(pre *core.Preprocessed, r *core.Randomized) error {
			_, err := staticverify.RevertPatch(pre, r, 3)
			return err
		}},
		{"pointer-0", func(pre *core.Preprocessed, r *core.Randomized) error {
			_, err := staticverify.RevertPointerPatch(pre, r, 0)
			return err
		}},
		{"byte-flip", func(pre *core.Preprocessed, r *core.Randomized) error {
			r.Image[(pre.RegionStart+pre.RegionEnd)/2] ^= 0x55
			return nil
		}},
		{"truncated", func(pre *core.Preprocessed, r *core.Randomized) error {
			r.Image = r.Image[:len(r.Image)-2]
			return nil
		}},
	}
	want := map[string]string{
		"testapp/transfer-3/plain":   "34553f73e1eb52771796816d22c64bf351803940c787171db3df6412c0e3fa22",
		"testapp/transfer-3/vsa":     "754fd69062b01f812bb9b0475d53ff71a487eda480d3d994d84672cdca603c29",
		"testapp/pointer-0/plain":    "ba8ef89a326de9a0699336c6557c14e76b75bb61ab3ab3b0bca737dcd4fb3688",
		"testapp/pointer-0/vsa":      "d5b362518a9335d03fb3e7ac250244303862344497771db73db29608663da4b7",
		"testapp/byte-flip/plain":    "a1c8b7452b48934b05f508b6de3d5214d465ff684cef3d827fe653cc2110b516",
		"testapp/byte-flip/vsa":      "a91de992b34affd5c6390f56cf93029047d7bd926a3a741b0856e6edb69c8b20",
		"testapp/truncated/plain":    "de9d001284c3e981c2963061fd38d434dbbc3272f60f6e03075f3163f1617463",
		"testapp/truncated/vsa":      "ab3c8df3c8a480b56a2f7b8f10232e4958aaef65de31f1e611a8c18ff40de282",
		"arduplane/transfer-3/plain": "b517be4fec3efd71d85cf0da406eea107be8246e151855c93e58164354570ac8",
		"arduplane/transfer-3/vsa":   "bb4a1c4244a3e9e09c978fbd75abcb5f19c898866019b620977551ff3cb99bb3",
		"arduplane/pointer-0/plain":  "634691e4902859b6849cbe2ce5dbaca9957d733f18a5e214342f00de6fb224c8",
		"arduplane/pointer-0/vsa":    "441d453dafa213656c4535114dca15d42bd945f6237ad8f700e7cacf8510357d",
		"arduplane/byte-flip/plain":  "9cdd05e14c14f90d0e22a7c38a4eb6c9b7d7007d730835663762fed47c7d3d7a",
		"arduplane/byte-flip/vsa":    "4cf3a241d634e5a91700608a17436881bb3e5298e1e9405e73088b70736be570",
		"arduplane/truncated/plain":  "50d2de13f7a52c83ce230205ff25c87454aece17db842c04063f0eb0139da678",
		"arduplane/truncated/vsa":    "cbdd930eb08463641ad03d02701b7c17129287572f5f2112b32d84f1e64f38a5",
	}
	for _, spec := range []firmware.AppSpec{firmware.TestApp(), firmware.Arduplane()} {
		img, err := firmware.Generate(spec, firmware.ModeMAVR)
		if err != nil {
			t.Fatal(err)
		}
		pre, err := core.Preprocess(img.ELF)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range defects {
			r, err := core.Randomize(pre, core.Permutation(rand.New(rand.NewSource(7)), len(pre.Blocks)))
			if err != nil {
				t.Fatal(err)
			}
			if err := d.inject(pre, r); err != nil && !errors.Is(err, staticverify.ErrNoSuchPatch) {
				t.Fatal(err)
			}
			for _, o := range options {
				key := spec.Name + "/" + d.name + "/" + o.name
				got := reportDigest(t, staticverify.Verify(pre, r, o.opts))
				if got != want[key] {
					t.Errorf("%s: report digest %s, want %s", key, got, want[key])
				}
				if cached := reportDigest(t, staticverify.NewBase(pre, o.opts).Verify(r)); cached != got {
					t.Errorf("%s: cached handle digest %s, one-shot %s", key, cached, got)
				}
			}
		}
	}
}

// reportDigest hashes a report's JSON and text renderings.
func reportDigest(t *testing.T, rep *staticverify.Report) string {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}
