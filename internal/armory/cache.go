package armory

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"sync/atomic"

	"mavr/internal/core"
	"mavr/internal/staticverify"
)

// Digest is the hex SHA-256 of a byte string — the content address used
// throughout the armory for submissions, canonical base images,
// permutations and artifacts.
func Digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// baseEntry is one cached base image: the submission's parse +
// preprocess + staticverify.NewBase work, done exactly once per
// distinct submission digest. Parse failures are cached too (same
// bytes, same error), so a misbehaving client cannot make the service
// re-parse garbage on every request.
type baseEntry struct {
	once sync.Once

	submitted string // digest of the submitted bytes
	canonical string // digest of pre.Image — the ledger key
	pre       *core.Preprocessed
	base      *staticverify.Base
	err       error
}

// build runs the once-per-base pipeline stage.
func (e *baseEntry) build(img []byte, opts staticverify.Options) {
	e.once.Do(func() {
		pre, err := core.LoadImage(img)
		if err != nil {
			e.err = err
			return
		}
		e.pre = pre
		e.canonical = Digest(pre.Image)
		e.base = staticverify.NewBase(pre, opts)
	})
}

// baseCache is the content-addressed cache of base images, bounded FIFO
// by distinct submission digest. Concurrent submissions of a new digest
// single-flight the expensive build: one goroutine preprocesses and
// recovers the CFG, the rest block on the entry and count as hits.
type baseCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*baseEntry
	order   []string

	hits   atomic.Uint64
	misses atomic.Uint64
}

// get returns the entry for img, building it (once) on a miss, and
// reports whether the entry already existed. The returned entry is
// fully built.
func (c *baseCache) get(img []byte, opts staticverify.Options) (*baseEntry, bool) {
	digest := Digest(img)
	c.mu.Lock()
	e, ok := c.entries[digest]
	if !ok {
		e = &baseEntry{submitted: digest}
		c.entries[digest] = e
		c.order = append(c.order, digest)
		for len(c.order) > c.max {
			delete(c.entries, c.order[0])
			c.order = c.order[1:]
		}
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.build(img, opts)
	return e, ok
}

// len reports the number of cached bases.
func (c *baseCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// all snapshots the cached entries (for metrics aggregation).
func (c *baseCache) all() []*baseEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*baseEntry, 0, len(c.order))
	for _, d := range c.order {
		out = append(out, c.entries[d])
	}
	return out
}
