package netlink

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// LinkStats are the per-link counters, safe for concurrent update.
// One LinkStats instance exists per session (fleet side) and per
// client.
type LinkStats struct {
	DatagramsIn  atomic.Uint64
	DatagramsOut atomic.Uint64
	BytesIn      atomic.Uint64
	BytesOut     atomic.Uint64

	// RecordsOut counts telemetry records packed onto the downlink.
	RecordsOut atomic.Uint64
	// UplinkFrames counts checksum-valid MAVLink frames observed on
	// the uplink (the fleet forwards raw bytes regardless; this is
	// observability, not gating).
	UplinkFrames atomic.Uint64
	// CRCRejects counts uplink frames that failed checksum validation
	// — oversize attack frames land here, since their checksum covers
	// more payload than the wire length byte admits.
	CRCRejects atomic.Uint64

	// SeqGaps counts link-sequence discontinuities (datagrams missing
	// from the peer's numbering — real or simulated loss). A datagram
	// that arrives late, within 64 numbers, takes its gap back.
	SeqGaps atomic.Uint64
	// Reordered counts datagrams arriving with an older sequence
	// number than already seen.
	Reordered atomic.Uint64

	// SimDropped/SimDuplicated/SimDelayed count link-simulator
	// interventions on this link's transmissions.
	SimDropped    atomic.Uint64
	SimDuplicated atomic.Uint64
	SimDelayed    atomic.Uint64

	// CorruptDatagrams counts received datagrams rejected by the
	// transport checksum — wire damage surfacing as whole-datagram loss.
	CorruptDatagrams atomic.Uint64
	// QueueDropped counts datagrams shed by bounded queues (drop-oldest
	// backpressure on the sender's delay queue / the client's uplink
	// queue).
	QueueDropped atomic.Uint64
	// Rehellos counts session re-establishments: hellos carrying a new
	// epoch after the peer detected a dead link.
	Rehellos atomic.Uint64
}

// LinkStatsSnapshot is a plain-value copy of LinkStats.
type LinkStatsSnapshot struct {
	DatagramsIn, DatagramsOut uint64
	BytesIn, BytesOut         uint64
	RecordsOut                uint64
	UplinkFrames, CRCRejects  uint64
	SeqGaps, Reordered        uint64
	SimDropped                uint64
	SimDuplicated             uint64
	SimDelayed                uint64
	CorruptDatagrams          uint64
	QueueDropped              uint64
	Rehellos                  uint64
}

// Snapshot copies the counters.
func (s *LinkStats) Snapshot() LinkStatsSnapshot {
	return LinkStatsSnapshot{
		DatagramsIn:   s.DatagramsIn.Load(),
		DatagramsOut:  s.DatagramsOut.Load(),
		BytesIn:       s.BytesIn.Load(),
		BytesOut:      s.BytesOut.Load(),
		RecordsOut:    s.RecordsOut.Load(),
		UplinkFrames:  s.UplinkFrames.Load(),
		CRCRejects:    s.CRCRejects.Load(),
		SeqGaps:       s.SeqGaps.Load(),
		Reordered:     s.Reordered.Load(),
		SimDropped:    s.SimDropped.Load(),
		SimDuplicated: s.SimDuplicated.Load(),
		SimDelayed:    s.SimDelayed.Load(),

		CorruptDatagrams: s.CorruptDatagrams.Load(),
		QueueDropped:     s.QueueDropped.Load(),
		Rehellos:         s.Rehellos.Load(),
	}
}

// metricsLines renders the snapshot as "prefix.key value" text lines.
func (s LinkStatsSnapshot) metricsLines(prefix string) []string {
	kv := []struct {
		k string
		v uint64
	}{
		{"datagrams_in", s.DatagramsIn}, {"datagrams_out", s.DatagramsOut},
		{"bytes_in", s.BytesIn}, {"bytes_out", s.BytesOut},
		{"records_out", s.RecordsOut},
		{"uplink_frames", s.UplinkFrames}, {"crc_rejects", s.CRCRejects},
		{"seq_gaps", s.SeqGaps}, {"reordered", s.Reordered},
		{"sim_dropped", s.SimDropped}, {"sim_duplicated", s.SimDuplicated},
		{"sim_delayed", s.SimDelayed},
		{"corrupt_datagrams", s.CorruptDatagrams},
		{"queue_dropped", s.QueueDropped}, {"rehellos", s.Rehellos},
	}
	lines := make([]string, 0, len(kv))
	for _, e := range kv {
		lines = append(lines, fmt.Sprintf("%s.%s %d", prefix, e.k, e.v))
	}
	return lines
}

// formatMetrics renders a stable, sorted metrics block from raw lines.
func formatMetrics(lines []string) string {
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}
