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
// (gadget audit and VSA). Every case takes the verifier's slow path:
// the randomized image's own CFG, a fresh analysis, and the diff's
// findings. The digests were recorded before the two verifiers were
// merged into one and must never be re-recorded; the cached handle must
// render the same bytes as the one-shot Verify.
//
// The paper profiles tabulate their scheduler tasks through stubs, so
// ArduPlane has no patched data pointer: its "pointer reverted" case
// pins the clean report.
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
		"testapp/transfer-3/plain":   "559ba79568a26904f7a30a8a99b232df53e88b02740f72efb6767991f1d8ad0e",
		"testapp/transfer-3/vsa":     "dd386a6c39b46bd5a96efb3ceaa775ca4abbf4bb80050e46f032d6dc12a1bb15",
		"testapp/pointer-0/plain":    "b3702ce8f6f217ddcea0298e5c0b7cbe81729d26e996e781fd3b81df72a16e8c",
		"testapp/pointer-0/vsa":      "9d6f6d59262b137eff07c4bfe0ac4ff70caddad108fde765d9003f71da2273f8",
		"testapp/byte-flip/plain":    "2e9fc0eeb971d7b0acfb7982b23e2dbed643d5c4b9c90f2b514eebc79f4d278d",
		"testapp/byte-flip/vsa":      "6fa836120c3e35ed047315c542dcaa1283e6e5ebe6f77cd0820ae9e8731f153f",
		"testapp/truncated/plain":    "de9d001284c3e981c2963061fd38d434dbbc3272f60f6e03075f3163f1617463",
		"testapp/truncated/vsa":      "ab3c8df3c8a480b56a2f7b8f10232e4958aaef65de31f1e611a8c18ff40de282",
		"arduplane/transfer-3/plain": "2a2f35de0a3bc7c769304e1ea0d6f44244fda59dc45e7320cfc793b5d8c7837c",
		"arduplane/transfer-3/vsa":   "cf82af7c2ccc85ddd7d1b95d93435b4eece49086fe517492941b5fd7bf16b025",
		"arduplane/pointer-0/plain":  "634691e4902859b6849cbe2ce5dbaca9957d733f18a5e214342f00de6fb224c8",
		"arduplane/pointer-0/vsa":    "441d453dafa213656c4535114dca15d42bd945f6237ad8f700e7cacf8510357d",
		"arduplane/byte-flip/plain":  "21f4f2c34ba1d526e9bade8f2cf1dd7112e7625f13113f39ab0e1202dcab2368",
		"arduplane/byte-flip/vsa":    "c52d0d64b5fe0bdf3dd47fc8a51d99f162c4b10da9c04a5e72e8da38258746a5",
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
