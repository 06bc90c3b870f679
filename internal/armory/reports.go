package armory

import (
	"sync"

	"mavr/internal/core"
	"mavr/internal/staticverify"
)

// StoredReport is what GET /report/<digest> serves: either one
// artifact's verification outcome (Kind "artifact") or a summary of a
// cached base image (Kind "base").
type StoredReport struct {
	Kind           string               `json:"kind"`
	BaseDigest     string               `json:"base_digest"`
	ArtifactDigest string               `json:"artifact_digest,omitempty"`
	Vehicle        string               `json:"vehicle,omitempty"`
	Epoch          uint64               `json:"epoch,omitempty"`
	PermDigest     string               `json:"perm_digest,omitempty"`
	Blocks         int                  `json:"blocks,omitempty"`
	RegionStart    uint32               `json:"region_start,omitempty"`
	RegionEnd      uint32               `json:"region_end,omitempty"`
	Report         *staticverify.Report `json:"report,omitempty"`
}

// reportStore keeps recent verification reports and base summaries
// addressable by digest, bounded FIFO over both.
type reportStore struct {
	mu      sync.Mutex
	max     int
	reports map[string]*StoredReport
	order   []string // digests in insertion order
}

// put stores an artifact report under its digest.
func (s *reportStore) put(digest string, r *StoredReport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.insert(digest, r)
}

// putBase stores (idempotently) the summary of a cached base image
// under its canonical digest, so clients can resolve a base digest seen
// in an artifact report. A summary evicted by newer reports is stored
// again with its base's next artifact.
func (s *reportStore) putBase(digest string, pre *core.Preprocessed) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.reports[digest]; ok {
		return
	}
	s.insert(digest, &StoredReport{
		Kind:        "base",
		BaseDigest:  digest,
		Blocks:      len(pre.Blocks),
		RegionStart: pre.RegionStart,
		RegionEnd:   pre.RegionEnd,
	})
}

// insert stores r under digest, evicting the oldest digests beyond max.
// The caller holds s.mu.
func (s *reportStore) insert(digest string, r *StoredReport) {
	if _, ok := s.reports[digest]; !ok {
		s.order = append(s.order, digest)
		for len(s.order) > s.max {
			delete(s.reports, s.order[0])
			s.order = s.order[1:]
		}
	}
	s.reports[digest] = r
}

// get looks a report up by digest.
func (s *reportStore) get(digest string) (*StoredReport, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.reports[digest]
	return r, ok
}
