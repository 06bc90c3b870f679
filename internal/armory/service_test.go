package armory

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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
// report is clean, the signature validates, and a fresh one-shot
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
	// And a cold one-shot verification (a fresh Base) must be clean too.
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
	if st.FastVerifies != 3 || st.FallbackVerifies != 0 {
		t.Fatalf("verifies = %d fast, %d fallback; want 3 and 0 (each request verifies against the cached base)",
			st.FastVerifies, st.FallbackVerifies)
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

// TestWarmMatchesCold holds cached bases to cold ones. For each paper
// profile a few (vehicle, epoch) requests go to one warm service, whose
// base is already cached, and each again to its own fresh service: both
// must issue the same artifact, permutation digest and signature, and
// the same report JSON.
func TestWarmMatchesCold(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale images in -short mode")
	}
	requests := []struct {
		vehicle string
		epoch   uint64
	}{{"uav-1", 0}, {"uav-2", 0}, {"uav-1", 1}, {"uav-3", 7}}
	for _, spec := range firmware.Profiles() {
		img, err := firmware.Generate(spec, firmware.ModeMAVR)
		if err != nil {
			t.Fatal(err)
		}
		elf, err := img.ELF.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		warm := New(Config{Workers: 1})
		if _, err := warm.Randomize(Request{Image: elf, Vehicle: "warmup"}); err != nil {
			t.Fatal(err)
		}
		for _, rq := range requests {
			req := Request{Image: elf, Vehicle: rq.vehicle, Epoch: rq.epoch}
			w, err := warm.Randomize(req)
			if err != nil {
				t.Fatal(err)
			}
			cold := New(Config{Workers: 1})
			c, err := cold.Randomize(req)
			cold.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !w.CacheHit || c.CacheHit {
				t.Fatalf("%s %s/%d: cache hits warm %v, cold %v", spec.Name, rq.vehicle, rq.epoch, w.CacheHit, c.CacheHit)
			}
			wr, err := json.Marshal(w.Report)
			if err != nil {
				t.Fatal(err)
			}
			cr, err := json.Marshal(c.Report)
			if err != nil {
				t.Fatal(err)
			}
			if w.ArtifactDigest != c.ArtifactDigest || w.PermDigest != c.PermDigest || w.Signature != c.Signature || !bytes.Equal(wr, cr) {
				t.Fatalf("%s %s/%d: warm artifact %s perm %s sig %s, cold %s %s %s; reports equal %v",
					spec.Name, rq.vehicle, rq.epoch, w.ArtifactDigest, w.PermDigest, w.Signature,
					c.ArtifactDigest, c.PermDigest, c.Signature, bytes.Equal(wr, cr))
			}
		}
		warm.Close()
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

// TestMetricsText pins the whole exposition after a fixed request
// sequence on a one-worker service: two vehicles, a replay, an epoch
// bump, a malformed image and a request with no vehicle.
func TestMetricsText(t *testing.T) {
	elf, _ := testImage()
	s := New(Config{Workers: 1})
	defer s.Close()
	for _, req := range []Request{
		{Image: elf, Vehicle: "uav-1"},
		{Image: elf, Vehicle: "uav-2"},
		{Image: elf, Vehicle: "uav-1"},
		{Image: elf, Vehicle: "uav-1", Epoch: 1},
		{Image: []byte("not a firmware image"), Vehicle: "uav-3"},
		{Image: elf},
	} {
		s.Randomize(req)
	}
	const want = `armory.artifacts_signed 4
armory.cache_hits 3
armory.cache_misses 2
armory.cached_bases 2
armory.completed 4
armory.failed 2
armory.fast_verifies 4
armory.ledger_bases 1
armory.ledger_conflicts 0
armory.queue_high_water 1
armory.reissues 1
armory.submitted 6
armory.verify_rejections 0
armory.vsa_resolved_sites 2
armory.vsa_sites 2
`
	if got := s.MetricsText(); got != want {
		t.Fatalf("metrics:\n%s\nwant:\n%s", got, want)
	}
}
