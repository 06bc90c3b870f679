package armory

import (
	"fmt"
	"testing"

	"mavr/internal/core"
)

// TestReportStoreBoundsBaseSummaries: base summaries share the FIFO
// bound with artifact reports, so a stream of distinct bases cannot
// grow the store past it, and an evicted summary is stored again with
// its base's next artifact.
func TestReportStoreBoundsBaseSummaries(t *testing.T) {
	s := &reportStore{max: 2, reports: make(map[string]*StoredReport)}
	pre := &core.Preprocessed{}
	for i := 0; i < 3; i++ {
		base := fmt.Sprintf("base-%d", i)
		s.putBase(base, pre)
		s.put(fmt.Sprintf("artifact-%d", i), &StoredReport{Kind: "artifact", BaseDigest: base})
	}
	if len(s.reports) > 2 || len(s.order) != len(s.reports) {
		t.Fatalf("store holds %d reports in a %d-long order, want at most 2 in both", len(s.reports), len(s.order))
	}
	if r, ok := s.get("base-2"); !ok || r.Kind != "base" {
		t.Errorf("newest base summary = %+v, %v", r, ok)
	}
	if _, ok := s.get("artifact-2"); !ok {
		t.Error("newest artifact report evicted")
	}
	s.putBase("base-0", pre)
	if r, ok := s.get("base-0"); !ok || r.Kind != "base" || len(s.reports) > 2 {
		t.Errorf("re-added base summary = %+v, %v (%d reports stored)", r, ok, len(s.reports))
	}
}
