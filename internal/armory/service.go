package armory

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"

	"mavr/internal/core"
	"mavr/internal/metrics"
	"mavr/internal/staticverify"
)

// Config sizes and shapes a Service.
type Config struct {
	// Workers bounds how many requests run the pipeline at once
	// (default 4). Each request runs on its caller's goroutine once it
	// holds one of Workers slots; later submissions wait for a slot.
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

// Stats is a point-in-time snapshot of the service counters, and the
// only declaration of them: each tagged field is one armory.<name>
// line of MetricsText. The counted fields live in the Service behind
// its stats mutex; CachedBases, LedgerBases and the VSA sums are read
// from the cache and the ledger when Stats is called.
type Stats struct {
	Submitted        uint64 `metric:"submitted"`
	Completed        uint64 `metric:"completed"`
	Failed           uint64 `metric:"failed"`
	CacheHits        uint64 `metric:"cache_hits"`
	CacheMisses      uint64 `metric:"cache_misses"`
	CachedBases      int    `metric:"cached_bases"`
	LedgerBases      int    `metric:"ledger_bases"`
	LedgerConflicts  uint64 `metric:"ledger_conflicts"`
	Reissues         uint64 `metric:"reissues"`
	VerifyRejections uint64 `metric:"verify_rejections"`
	// FastVerifies counts verifications against a cached base: every
	// one the service runs. FallbackVerifies is always 0, because the
	// cached verifier has one path, and has no metrics line. Both stay
	// while the benchmark harness reads them.
	FastVerifies     uint64 `metric:"fast_verifies"`
	FallbackVerifies uint64
	// VSASites / VSAResolvedSites sum, over the cached bases analyzed
	// with value-set analysis, the indirect transfer sites found and
	// the subset resolved to a proven target set.
	VSASites         uint64 `metric:"vsa_sites"`
	VSAResolvedSites uint64 `metric:"vsa_resolved_sites"`
	ArtifactsSigned  uint64 `metric:"artifacts_signed"`
	// QueueHighWater is the most submissions ever admitted but not yet
	// holding a slot, the newest one included: 1 for a sequential
	// client.
	QueueHighWater uint64 `metric:"queue_high_water"`
}

// Service is the armory: the randomize → verify → sign pipeline over
// shared cache and ledger state. Safe for concurrent use; Randomize
// runs the pipeline on its caller's goroutine.
type Service struct {
	cfg    Config
	cache  *baseCache
	ledger *Ledger

	// slots holds one token per running pipeline, Config.Workers at
	// most.
	slots chan struct{}
	// admitted counts the submissions Close waits for.
	admitted sync.WaitGroup

	// mu guards stats (the service's counted fields, see Stats),
	// closed, and waiting: the admitted submissions not yet holding a
	// slot.
	mu      sync.Mutex
	stats   Stats
	closed  bool
	waiting uint64
}

// New builds a Service. Call Close to drain it.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	return &Service{
		cfg:    cfg,
		cache:  &baseCache{max: maxBases, entries: make(map[string]*baseEntry)},
		ledger: NewLedger(),
		slots:  make(chan struct{}, cfg.Workers),
	}
}

// Close stops accepting submissions and returns once every admitted
// one has completed.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.admitted.Wait()
}

// Ledger exposes the fleet permutation ledger (read-mostly: soak tools
// and tests assert its invariants).
func (s *Service) Ledger() *Ledger { return s.ledger }

// Randomize runs one request through the pipeline once it holds a
// slot. While every slot is taken it blocks, and blocked callers take
// slots in arrival order: backpressure, not load shedding.
func (s *Service) Randomize(req Request) (*Artifact, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.admitted.Add(1)
	s.waiting++
	s.stats.Submitted++
	s.stats.QueueHighWater = max(s.stats.QueueHighWater, s.waiting)
	s.mu.Unlock()
	defer s.admitted.Done()

	s.slots <- struct{}{}
	defer func() { <-s.slots }()
	s.mu.Lock()
	s.waiting--
	s.mu.Unlock()
	art, err := s.process(req)
	s.count(func(st *Stats) {
		if err != nil {
			st.Failed++
		} else {
			st.Completed++
		}
	})
	return art, err
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
	if cacheHit {
		s.count(func(st *Stats) { st.CacheHits++ })
	} else {
		s.count(func(st *Stats) { st.CacheMisses++ })
	}
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
			s.count(func(st *Stats) { st.LedgerConflicts++ })
			continue
		}
		if claim == Reissued {
			s.count(func(st *Stats) { st.Reissues++ })
		}

		r, err := core.Randomize(pre, perm)
		if err != nil {
			s.ledger.Release(baseDigest, pd, holder)
			return nil, &RequestError{Status: 422, Msg: fmt.Sprintf("randomization failed: %v", err)}
		}
		rep := base.Verify(r)
		s.count(func(st *Stats) { st.FastVerifies++ })
		if !rep.OK() {
			s.ledger.Release(baseDigest, pd, holder)
			s.count(func(st *Stats) { st.VerifyRejections++ })
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
		s.count(func(st *Stats) { st.ArtifactsSigned++ })
		return art, nil
	}
	return nil, &RequestError{
		Status: 503,
		Msg:    fmt.Sprintf("no free permutation after %d attempts (fleet larger than the base image's diversity?)", maxAttempts),
	}
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	st.CachedBases = s.cache.len()
	st.LedgerBases = s.ledger.Bases()
	for _, e := range s.cache.all() {
		if e.base != nil {
			if sites, resolved, ok := e.base.VSASummary(); ok {
				st.VSASites += uint64(sites)
				st.VSAResolvedSites += uint64(resolved)
			}
		}
	}
	return st
}

// count applies add to the service counters under their lock.
func (s *Service) count(add func(*Stats)) {
	s.mu.Lock()
	add(&s.stats)
	s.mu.Unlock()
}

// MetricsText renders the service counters as a stable, sorted
// "name value" block in the same shape netlink.Fleet.MetricsText uses,
// so one scraper handles both daemons.
func (s *Service) MetricsText() string {
	return metrics.Text(metrics.Lines("armory", s.Stats()))
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
