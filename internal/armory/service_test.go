package armory

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mavr/internal/core"
	"mavr/internal/firmware"
	"mavr/internal/staticverify"
)

// testImage generates the testapp firmware once and returns its ELF
// bytes (the armory's submission format) plus the preprocessed handle
// for cross-checking artifacts.
var testImage = sync.OnceValues(func() ([]byte, *core.Preprocessed) {
	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		panic(err)
	}
	elf, err := img.ELF.Marshal()
	if err != nil {
		panic(err)
	}
	pre, err := core.Preprocess(img.ELF)
	if err != nil {
		panic(err)
	}
	return elf, pre
})

// TestServiceRoundTrip proves the pipeline end to end: the artifact is
// exactly core.Randomize(base, perm) for the returned permutation, the
// report is clean, the signature validates, and a fresh stateless
// verification agrees with the served report.
func TestServiceRoundTrip(t *testing.T) {
	elf, pre := testImage()
	s := New(Config{Workers: 2})
	defer s.Close()

	art, err := s.Randomize(Request{Image: elf, Vehicle: "uav-1", Epoch: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !art.Report.OK() {
		t.Fatalf("report not OK: %d errors", art.Report.Errors())
	}
	if art.BaseDigest != Digest(pre.Image) {
		t.Fatalf("base digest = %s, want canonical %s", art.BaseDigest, Digest(pre.Image))
	}
	if art.ArtifactDigest != Digest(art.Image) {
		t.Fatal("artifact digest does not match artifact bytes")
	}
	if !VerifySignature(DefaultSecret, art.BaseDigest, art.PermDigest, art.ArtifactDigest, art.Signature) {
		t.Fatal("signature does not verify under the default secret")
	}

	// The artifact must be reproducible from the returned permutation.
	r, err := core.Randomize(pre, art.Perm)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Image, art.Image) {
		t.Fatal("artifact image differs from core.Randomize(pre, art.Perm)")
	}
	// And a cold stateless verification of it must be clean too.
	if rep := staticverify.Verify(pre, r, staticverify.DefaultOptions()); !rep.OK() {
		t.Fatalf("fresh verification of served artifact failed: %d errors", rep.Errors())
	}

	// Replaying the same request is idempotent: same artifact, reissued.
	art2, err := s.Randomize(Request{Image: elf, Vehicle: "uav-1", Epoch: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !art2.Reissued {
		t.Fatal("replay was not marked reissued")
	}
	if art2.ArtifactDigest != art.ArtifactDigest || !bytes.Equal(art2.Image, art.Image) {
		t.Fatal("replay produced a different artifact")
	}
	if s.Ledger().Issued(art.BaseDigest) != 1 {
		t.Fatalf("ledger issued = %d after replay, want 1", s.Ledger().Issued(art.BaseDigest))
	}

	// A new epoch of the same vehicle is a new holder: new permutation.
	art3, err := s.Randomize(Request{Image: elf, Vehicle: "uav-1", Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if art3.PermDigest == art.PermDigest {
		t.Fatal("re-randomization epoch reused the previous permutation")
	}

	st := s.Stats()
	if st.CacheMisses != 1 {
		t.Fatalf("cache misses = %d, want 1 (one distinct base)", st.CacheMisses)
	}
	if st.CacheHits != 2 {
		t.Fatalf("cache hits = %d, want 2", st.CacheHits)
	}
	if st.Completed != 3 || st.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want 3 and 0", st.Completed, st.Failed)
	}
	if st.FallbackVerifies != 0 {
		t.Fatalf("fallback verifies = %d, want 0 (cached base must fast-path)", st.FallbackVerifies)
	}
}

// TestServiceFleetUniqueness floods the service with concurrent
// submissions for distinct vehicles and asserts the ledger invariant:
// every vehicle gets its own permutation, all verified clean.
func TestServiceFleetUniqueness(t *testing.T) {
	elf, _ := testImage()
	s := New(Config{Workers: 4})
	defer s.Close()

	const fleet = 48
	arts := make([]*Artifact, fleet)
	errs := make([]error, fleet)
	var wg sync.WaitGroup
	for i := 0; i < fleet; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arts[i], errs[i] = s.Randomize(Request{
				Image:   elf,
				Vehicle: fmt.Sprintf("uav-%03d", i),
				Epoch:   0,
			})
		}(i)
	}
	wg.Wait()

	perms := make(map[string]int)
	images := make(map[string]int)
	for i := 0; i < fleet; i++ {
		if errs[i] != nil {
			t.Fatalf("vehicle %d: %v", i, errs[i])
		}
		if !arts[i].Report.OK() {
			t.Fatalf("vehicle %d: report not OK", i)
		}
		if prev, dup := perms[arts[i].PermDigest]; dup {
			t.Fatalf("vehicles %d and %d issued the same permutation", prev, i)
		}
		perms[arts[i].PermDigest] = i
		if prev, dup := images[arts[i].ArtifactDigest]; dup {
			t.Fatalf("vehicles %d and %d received identical images", prev, i)
		}
		images[arts[i].ArtifactDigest] = i
	}
	if got := s.Ledger().Issued(arts[0].BaseDigest); got != fleet {
		t.Fatalf("ledger issued = %d, want %d", got, fleet)
	}
	st := s.Stats()
	if st.CacheMisses != 1 {
		t.Fatalf("cache misses = %d, want 1 (single-flight per base)", st.CacheMisses)
	}
	if st.CacheHits != fleet-1 {
		t.Fatalf("cache hits = %d, want %d", st.CacheHits, fleet-1)
	}
}

// TestServiceBadRequests checks the structured rejection paths.
func TestServiceBadRequests(t *testing.T) {
	elf, _ := testImage()
	s := New(Config{Workers: 1})
	defer s.Close()

	var re *RequestError
	if _, err := s.Randomize(Request{Image: nil, Vehicle: "uav-1"}); !errors.As(err, &re) || re.Status != 400 {
		t.Fatalf("empty image: %v, want RequestError 400", err)
	}
	if _, err := s.Randomize(Request{Image: elf, Vehicle: ""}); !errors.As(err, &re) || re.Status != 400 {
		t.Fatalf("missing vehicle: %v, want RequestError 400", err)
	}
	if _, err := s.Randomize(Request{Image: []byte("not a firmware image"), Vehicle: "uav-1"}); !errors.As(err, &re) || re.Status != 422 {
		t.Fatalf("garbage image: %v, want RequestError 422", err)
	}
	// The garbage parse failure is cached: same bytes fail again without
	// counting as a fresh build.
	if _, err := s.Randomize(Request{Image: []byte("not a firmware image"), Vehicle: "uav-2"}); !errors.As(err, &re) || re.Status != 422 {
		t.Fatalf("garbage image (cached): %v, want RequestError 422", err)
	}
	st := s.Stats()
	if st.Failed != 4 || st.Completed != 0 {
		t.Fatalf("failed=%d completed=%d, want 4 and 0", st.Failed, st.Completed)
	}
	if st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Fatalf("cache misses=%d hits=%d, want 1 and 1 (negative caching)", st.CacheMisses, st.CacheHits)
	}
}

// TestServiceClosed checks submissions after Close fail cleanly.
func TestServiceClosed(t *testing.T) {
	s := New(Config{Workers: 1})
	s.Close()
	if _, err := s.Randomize(Request{Image: []byte{1}, Vehicle: "uav-1"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestDeriveSeedDistinct spot-checks that the seed chain separates its
// inputs (base, vehicle, epoch, attempt).
func TestDeriveSeedDistinct(t *testing.T) {
	base := deriveSeed("d1", "uav-1", 0, 0)
	variants := []struct {
		name string
		got  int64
	}{
		{"vehicle", deriveSeed("d1", "uav-2", 0, 0)},
		{"epoch", deriveSeed("d1", "uav-1", 1, 0)},
		{"attempt", deriveSeed("d1", "uav-1", 0, 1)},
		{"base", deriveSeed("d2", "uav-1", 0, 0)},
	}
	for _, v := range variants {
		if v.got == base {
			t.Fatalf("changing %s did not change the seed", v.name)
		}
	}
	if deriveSeed("d1", "uav-1", 0, 0) != base {
		t.Fatal("deriveSeed is not deterministic")
	}
}

// TestPermDigestInjective spot-checks the permutation encoding.
func TestPermDigestInjective(t *testing.T) {
	if PermDigest([]int{0, 1, 2}) == PermDigest([]int{0, 2, 1}) {
		t.Fatal("distinct permutations share a digest")
	}
	if PermDigest([]int{0, 1, 2}) != PermDigest([]int{0, 1, 2}) {
		t.Fatal("equal permutations disagree")
	}
}

// TestMetricsText checks the scrape format: sorted "name value" lines.
func TestMetricsText(t *testing.T) {
	elf, _ := testImage()
	s := New(Config{Workers: 1})
	defer s.Close()
	if _, err := s.Randomize(Request{Image: elf, Vehicle: "uav-1"}); err != nil {
		t.Fatal(err)
	}
	text := s.MetricsText()
	for _, want := range []string{
		"armory.submitted 1",
		"armory.completed 1",
		"armory.cache_misses 1",
		"armory.artifacts_signed 1",
		"armory.fast_verifies 1",
		"armory.fallback_verifies 0",
		"armory.fallback_base_findings 0",
		"armory.fallback_diff_divergence 0",
		"armory.fallback_vsa_reads_changed 0",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}
