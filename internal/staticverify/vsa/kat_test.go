package vsa_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"testing"

	"mavr/internal/core"
	"mavr/internal/firmware"
	"mavr/internal/staticverify"
	"mavr/internal/staticverify/vsa"
)

// katSubject is one paper profile randomized under permutation seed 7,
// with the analysis input recovered from the randomized image exactly
// as the stateless verifier builds it.
type katSubject struct {
	name string
	pre  *core.Preprocessed
	r    *core.Randomized
	in   *vsa.Input
}

func katSubjects(t *testing.T) []katSubject {
	t.Helper()
	var out []katSubject
	for _, spec := range []firmware.AppSpec{firmware.Arduplane(), firmware.Arducopter(), firmware.Ardurover(), firmware.TestApp()} {
		img, err := firmware.Generate(spec, firmware.ModeMAVR)
		if err != nil {
			t.Fatal(err)
		}
		pre, err := core.Preprocess(img.ELF)
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.Randomize(pre, core.Permutation(rand.New(rand.NewSource(7)), len(pre.Blocks)))
		if err != nil {
			t.Fatal(err)
		}
		g := staticverify.Recover(r.Image, staticverify.RelocatedBlocks(pre, r), pre.RegionStart, pre.RegionEnd)
		out = append(out, katSubject{spec.Name, pre, r, staticverify.VSAInput(r.Image, g, pre)})
	}
	return out
}

func resultJSON(t *testing.T, res *vsa.Result) []byte {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestAnalyzeKnownAnswers pins the analysis byte for byte: the SHA-256
// of the Result JSON (functions, sites, reads) and of the full
// Verify(…, VSA) report JSON for each profile. The digests were
// recorded from the serial, map-backed analyzer; any change to the
// transfer functions, the fixpoint order or the merge shows up here.
func TestAnalyzeKnownAnswers(t *testing.T) {
	want := map[string][2]string{
		"arduplane": {
			"b62b91ef20d9557fe024bab5537df582e6b961ca39208eea495581a0e81a01b4",
			"8cae7546dead79da8f943991682179d918e5f9c1a833350394cb618ed942f91a",
		},
		"arducopter": {
			"222232412caf6475954da82409ad1b6273675532a5630dd819208bc4c936513e",
			"65a0a326ff5fb93488ee1d16d24a56a9729e949e27699a8f44789db10f98b0b2",
		},
		"ardurover": {
			"ee6abc3789fc5bb3ce1b25d8df8c98286ef7dea7426b8ae1cda22cf2f5338c72",
			"72c45fcc659cc93d0d991e06a5faccfec3288433bf9683dd0ac771c9bbb87777",
		},
		"testapp": {
			"4bc6d9dc32baae994864126ebc57d237234b3f87ab2ceacaae5c08b826779e47",
			"14dc5cd648d5ffefcb0a54e496e3bb019b6d7819533754a94041cda2982116b7",
		},
	}
	opts := staticverify.DefaultOptions()
	opts.VSA = true
	for _, s := range katSubjects(t) {
		if got := digest(resultJSON(t, vsa.Analyze(s.in))); got != want[s.name][0] {
			t.Errorf("%s: Analyze result digest %s, want %s", s.name, got, want[s.name][0])
		}
		var buf bytes.Buffer
		if err := staticverify.Verify(s.pre, s.r, opts).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if got := digest(buf.Bytes()); got != want[s.name][1] {
			t.Errorf("%s: Verify report digest %s, want %s", s.name, got, want[s.name][1])
		}
	}
}

// TestAnalyzeShardedMatchesSerial holds the sharded fixpoint to the
// one-shard run: per-shard read bitsets OR-merged and results placed in
// function-index order make the Result independent of the shard count,
// including counts that do not divide the function list evenly and
// counts above GOMAXPROCS.
func TestAnalyzeShardedMatchesSerial(t *testing.T) {
	for _, s := range katSubjects(t) {
		serial := resultJSON(t, vsa.AnalyzeSharded(s.in, 1))
		for _, shards := range []int{2, 3, 7} {
			if got := resultJSON(t, vsa.AnalyzeSharded(s.in, shards)); !bytes.Equal(got, serial) {
				t.Fatalf("%s: %d shards diverge from 1 shard", s.name, shards)
			}
		}
	}
}
