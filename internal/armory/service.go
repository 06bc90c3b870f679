package armory

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"mavr/internal/core"
	"mavr/internal/staticverify"
)

// Config sizes and shapes a Service.
type Config struct {
	// Workers is the randomization worker-pool size (default 4). The
	// pool bounds CPU concurrency; submissions beyond it queue.
	Workers int
	// Secret is the HMAC artifact-signing key (default DefaultSecret).
	Secret []byte
	// Opts are the static-verification options applied to every
	// artifact (nil: staticverify.DefaultOptions — full verification
	// including the residual gadget audit).
	Opts *staticverify.Options
}

const (
	// maxBases bounds the content-addressed base cache (FIFO eviction
	// by submission digest).
	maxBases = 64
	// maxReports bounds the stored reports served by GET /report
	// (FIFO).
	maxReports = 4096
	// maxAttempts bounds the ledger redraw chain per request. With n!
	// permutations a genuine collision is astronomically unlikely; the
	// bound exists so a pathological base (one block) fails loudly
	// instead of spinning.
	maxAttempts = 64
)

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Secret == nil {
		c.Secret = DefaultSecret
	}
	if c.Opts == nil {
		opts := staticverify.DefaultOptions()
		// Armory-managed verification resolves indirect control flow by
		// default: per-base VSA is computed once and translated across
		// the fleet's permutations, so the marginal per-artifact cost is
		// a rendering pass.
		opts.VSA = true
		c.Opts = &opts
	}
	return c
}

// Request is one provisioning submission: randomize this base image
// for this vehicle at this re-randomization epoch.
type Request struct {
	// Image is the base firmware: an ELF executable or the
	// prepended-HEX external-flash format (core.LoadImage).
	Image []byte
	// Vehicle is the fleet-unique vehicle identity.
	Vehicle string
	// Epoch distinguishes successive provisionings of the same vehicle
	// (0 on first flash, incremented per re-randomization). The pair
	// (Vehicle, Epoch) is the ledger holder: replays are idempotent,
	// new epochs get fresh permutations.
	Epoch uint64
}

// Artifact is one signed, verified randomization outcome.
type Artifact struct {
	// BaseDigest is the canonical content address of the base image
	// (SHA-256 of the flat flash image, container-independent).
	BaseDigest string `json:"base_digest"`
	// ArtifactDigest is the SHA-256 of Image.
	ArtifactDigest string `json:"artifact_digest"`
	Vehicle        string `json:"vehicle"`
	Epoch          uint64 `json:"epoch"`
	// PermDigest is the SHA-256 of the applied permutation — the
	// ledger's uniqueness key.
	PermDigest string `json:"perm_digest"`
	// Perm is the applied permutation (the master knows its own layout;
	// the readout fuse keeps it from everyone else).
	Perm []int `json:"perm"`
	// Attempts counts ledger redraws before a free permutation was
	// found (1 = first draw was free or re-issued).
	Attempts int `json:"attempts"`
	// CacheHit says the base image was already preprocessed.
	CacheHit bool `json:"cache_hit"`
	// Reissued says this holder had already been issued this exact
	// artifact (request replay).
	Reissued bool `json:"reissued"`
	// Signature is Sign(secret, BaseDigest, PermDigest, ArtifactDigest).
	Signature string `json:"signature"`
	// Image is the randomized flash image. It travels raw after the
	// JSON head (wire.go), never inside it.
	Image []byte `json:"-"`
	// Report is the full static-verification report.
	Report *staticverify.Report `json:"report"`
}

// RequestError is a structured rejection: a client error with an HTTP
// status and, when verification failed, the findings that condemned
// the image.
type RequestError struct {
	Status   int // suggested HTTP status
	Msg      string
	Findings []staticverify.Finding
}

func (e *RequestError) Error() string {
	if len(e.Findings) > 0 {
		return fmt.Sprintf("%s (%d findings, first: %s)", e.Msg, len(e.Findings), e.Findings[0])
	}
	return e.Msg
}

// ErrClosed is returned by Randomize after Close.
var ErrClosed = errors.New("armory: service closed")

// Stats is a point-in-time snapshot of the service counters.
type Stats struct {
	Submitted        uint64
	Completed        uint64
	Failed           uint64
	CacheHits        uint64
	CacheMisses      uint64
	CachedBases      int
	LedgerBases      int
	LedgerConflicts  uint64
	Reissues         uint64
	VerifyRejections uint64
	FastVerifies     uint64 // staticverify.Base fast-path verifications
	FallbackVerifies uint64 // verifications that recovered the artifact's own CFG
	// FallbackVerifies by cause, as staticverify.BaseStats splits it.
	FallbackBaseFindings    uint64
	FallbackDiffDivergence  uint64
	FallbackVSAReadsChanged uint64
	// VSASites / VSAResolvedSites sum, over the cached bases analyzed
	// with value-set analysis, the indirect transfer sites found and
	// the subset resolved to a proven target set.
	VSASites         uint64
	VSAResolvedSites uint64
	ArtifactsSigned  uint64
	QueueHighWater   uint64 // deepest the submission queue has been
}

// Service is the armory: a worker pool running the randomize → verify
// → sign pipeline over shared cache and ledger state. Safe for
// concurrent use; Randomize may be called from any goroutine.
type Service struct {
	cfg     Config
	cache   *baseCache
	ledger  *Ledger
	reports *reportStore

	jobs    chan job
	wg      sync.WaitGroup
	closeMu sync.Mutex
	closed  bool

	submitted        atomic.Uint64
	completed        atomic.Uint64
	failed           atomic.Uint64
	ledgerConflicts  atomic.Uint64
	reissues         atomic.Uint64
	verifyRejections atomic.Uint64
	signed           atomic.Uint64
	queueHigh        atomic.Uint64
}

type job struct {
	req  Request
	resp chan result
}

type result struct {
	art *Artifact
	err error
}

// New builds a Service and starts its worker pool. Call Close to drain.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:     cfg,
		cache:   &baseCache{max: maxBases, entries: make(map[string]*baseEntry)},
		ledger:  NewLedger(),
		reports: &reportStore{max: maxReports, reports: make(map[string]*StoredReport)},
		// Four queued submissions per worker keep the pool busy; past
		// that Randomize blocks: backpressure, not load shedding.
		jobs: make(chan job, 4*cfg.Workers),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Close stops accepting submissions and drains the workers. Queued
// submissions complete.
func (s *Service) Close() {
	s.closeMu.Lock()
	if !s.closed {
		s.closed = true
		close(s.jobs)
	}
	s.closeMu.Unlock()
	s.wg.Wait()
}

// Ledger exposes the fleet permutation ledger (read-mostly: soak tools
// and tests assert its invariants).
func (s *Service) Ledger() *Ledger { return s.ledger }

// Randomize runs one request through the pipeline, blocking until a
// worker completes it.
func (s *Service) Randomize(req Request) (*Artifact, error) {
	j := job{req: req, resp: make(chan result, 1)}
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return nil, ErrClosed
	}
	s.submitted.Add(1)
	if depth := uint64(len(s.jobs) + 1); depth > s.queueHigh.Load() {
		s.queueHigh.Store(depth)
	}
	s.jobs <- j
	s.closeMu.Unlock()
	r := <-j.resp
	return r.art, r.err
}

func (s *Service) worker() {
	defer s.wg.Done()
	for j := range s.jobs {
		art, err := s.process(j.req)
		if err != nil {
			s.failed.Add(1)
		} else {
			s.completed.Add(1)
		}
		j.resp <- result{art: art, err: err}
	}
}

// process is the pipeline body: preprocess (cached) → permute (ledger)
// → patch → verify (cached base) → sign.
func (s *Service) process(req Request) (*Artifact, error) {
	if len(req.Image) == 0 {
		return nil, &RequestError{Status: 400, Msg: "empty base image"}
	}
	if req.Vehicle == "" {
		return nil, &RequestError{Status: 400, Msg: "missing vehicle id"}
	}

	entry, cacheHit := s.cache.get(req.Image, *s.cfg.Opts)
	if entry.err != nil {
		return nil, &RequestError{Status: 422, Msg: fmt.Sprintf("unusable base image: %v", entry.err)}
	}
	pre, base := entry.pre, entry.base
	baseDigest := entry.canonical
	holder := Holder{Vehicle: req.Vehicle, Epoch: req.Epoch}

	for attempt := 0; attempt < maxAttempts; attempt++ {
		seed := deriveSeed(baseDigest, req.Vehicle, req.Epoch, attempt)
		perm := core.Permutation(rand.New(rand.NewSource(seed)), len(pre.Blocks))
		pd := PermDigest(perm)

		claim := s.ledger.Claim(baseDigest, pd, holder)
		if claim == Conflict {
			s.ledgerConflicts.Add(1)
			continue
		}
		if claim == Reissued {
			s.reissues.Add(1)
		}

		r, err := core.Randomize(pre, perm)
		if err != nil {
			s.ledger.Release(baseDigest, pd, holder)
			return nil, &RequestError{Status: 422, Msg: fmt.Sprintf("randomization failed: %v", err)}
		}
		rep := base.Verify(r)
		if !rep.OK() {
			s.ledger.Release(baseDigest, pd, holder)
			s.verifyRejections.Add(1)
			return nil, &RequestError{
				Status:   422,
				Msg:      fmt.Sprintf("static verification rejected the randomized image (%d errors)", rep.Errors()),
				Findings: rep.Findings,
			}
		}

		artifactDigest := Digest(r.Image)
		art := &Artifact{
			BaseDigest:     baseDigest,
			ArtifactDigest: artifactDigest,
			Vehicle:        req.Vehicle,
			Epoch:          req.Epoch,
			PermDigest:     pd,
			Perm:           perm,
			Attempts:       attempt + 1,
			CacheHit:       cacheHit,
			Reissued:       claim == Reissued,
			Signature:      Sign(s.cfg.Secret, baseDigest, pd, artifactDigest),
			Image:          r.Image,
			Report:         rep,
		}
		s.signed.Add(1)
		s.reports.put(artifactDigest, &StoredReport{
			Kind:           "artifact",
			BaseDigest:     baseDigest,
			ArtifactDigest: artifactDigest,
			Vehicle:        req.Vehicle,
			Epoch:          req.Epoch,
			PermDigest:     pd,
			Report:         rep,
		})
		s.reports.putBase(baseDigest, pre)
		return art, nil
	}
	return nil, &RequestError{
		Status: 503,
		Msg:    fmt.Sprintf("no free permutation after %d attempts (fleet larger than the base image's diversity?)", maxAttempts),
	}
}

// Report returns the stored report for an artifact or base digest.
func (s *Service) Report(digest string) (*StoredReport, bool) {
	return s.reports.get(digest)
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	st := Stats{
		Submitted:        s.submitted.Load(),
		Completed:        s.completed.Load(),
		Failed:           s.failed.Load(),
		CacheHits:        s.cache.hits.Load(),
		CacheMisses:      s.cache.misses.Load(),
		CachedBases:      s.cache.len(),
		LedgerBases:      s.ledger.Bases(),
		LedgerConflicts:  s.ledgerConflicts.Load(),
		Reissues:         s.reissues.Load(),
		VerifyRejections: s.verifyRejections.Load(),
		ArtifactsSigned:  s.signed.Load(),
	}
	st.QueueHighWater = s.queueHigh.Load()
	for _, e := range s.cache.all() {
		if e.base != nil {
			bs := e.base.Stats()
			st.FastVerifies += bs.FastVerifies
			st.FallbackVerifies += bs.FallbackVerifies
			st.FallbackBaseFindings += bs.FallbackBaseFindings
			st.FallbackDiffDivergence += bs.FallbackDiffDivergence
			st.FallbackVSAReadsChanged += bs.FallbackVSAReadsChanged
			if sites, resolved, ok := e.base.VSASummary(); ok {
				st.VSASites += uint64(sites)
				st.VSAResolvedSites += uint64(resolved)
			}
		}
	}
	return st
}

// MetricsText renders the service counters as a stable, sorted
// "name value" block in the same shape netlink.Fleet.MetricsText uses,
// so one scraper handles both daemons.
func (s *Service) MetricsText() string {
	st := s.Stats()
	lines := []string{
		fmt.Sprintf("armory.submitted %d", st.Submitted),
		fmt.Sprintf("armory.completed %d", st.Completed),
		fmt.Sprintf("armory.failed %d", st.Failed),
		fmt.Sprintf("armory.cache_hits %d", st.CacheHits),
		fmt.Sprintf("armory.cache_misses %d", st.CacheMisses),
		fmt.Sprintf("armory.cached_bases %d", st.CachedBases),
		fmt.Sprintf("armory.ledger_bases %d", st.LedgerBases),
		fmt.Sprintf("armory.ledger_conflicts %d", st.LedgerConflicts),
		fmt.Sprintf("armory.reissues %d", st.Reissues),
		fmt.Sprintf("armory.verify_rejections %d", st.VerifyRejections),
		fmt.Sprintf("armory.fast_verifies %d", st.FastVerifies),
		fmt.Sprintf("armory.fallback_verifies %d", st.FallbackVerifies),
		fmt.Sprintf("armory.fallback_base_findings %d", st.FallbackBaseFindings),
		fmt.Sprintf("armory.fallback_diff_divergence %d", st.FallbackDiffDivergence),
		fmt.Sprintf("armory.fallback_vsa_reads_changed %d", st.FallbackVSAReadsChanged),
		fmt.Sprintf("armory.vsa_sites %d", st.VSASites),
		fmt.Sprintf("armory.vsa_resolved_sites %d", st.VSAResolvedSites),
		fmt.Sprintf("armory.artifacts_signed %d", st.ArtifactsSigned),
		fmt.Sprintf("armory.queue_high_water %d", st.QueueHighWater),
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// PermDigest is the ledger key of one permutation: the SHA-256 of its
// indices in little-endian 32-bit encoding.
func PermDigest(perm []int) string {
	buf := make([]byte, 4*len(perm))
	for i, p := range perm {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(p))
	}
	return Digest(buf)
}

// deriveSeed derives the deterministic permutation seed for one draw of
// the redraw chain. Same request, same seed — idempotent replays —
// while any change to base, vehicle, epoch or attempt lands elsewhere
// in the 64-bit space.
func deriveSeed(baseDigest, vehicle string, epoch uint64, attempt int) int64 {
	h := fnv.New64a()
	h.Write([]byte(baseDigest))
	h.Write([]byte{0})
	h.Write([]byte(vehicle))
	var num [16]byte
	binary.LittleEndian.PutUint64(num[:8], epoch)
	binary.LittleEndian.PutUint64(num[8:], uint64(attempt))
	h.Write(num[:])
	return int64(h.Sum64())
}
