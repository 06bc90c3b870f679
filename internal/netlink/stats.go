package netlink

import "time"

// LinkStatsSnapshot holds one link's counters: one per session on the
// fleet side and one per client. It is the only declaration of the
// link counters; each tagged field is one link.<key>.<name> line of
// Fleet.MetricsText. The live copy sits behind its owner's mutex (the
// session's or the client's), and Stats returns a copy.
//
// Each side counts what it sees, so some fields stay zero on one side:
// a fleet session never counts CorruptDatagrams or QueueDropped (the
// fleet books those in fleet.corrupt_datagrams and
// fleet.send_queue_dropped, since a corrupt datagram names no session
// and the send queue is shared), and a client never counts RecordsOut,
// UplinkFrames, CRCRejects or the Sim* fields. The fields and their
// always-zero link.* lines stay, because scrapers and the benchmark
// harness read them by name.
type LinkStatsSnapshot struct {
	DatagramsIn  uint64 `metric:"datagrams_in"`
	DatagramsOut uint64 `metric:"datagrams_out"`
	BytesIn      uint64 `metric:"bytes_in"`
	BytesOut     uint64 `metric:"bytes_out"`

	// RecordsOut counts telemetry records packed onto the downlink.
	RecordsOut uint64 `metric:"records_out"`
	// UplinkFrames counts checksum-valid MAVLink frames observed on
	// the uplink (the fleet forwards raw bytes regardless; this is
	// observability, not gating).
	UplinkFrames uint64 `metric:"uplink_frames"`
	// CRCRejects counts uplink frames that failed checksum validation
	// — oversize attack frames land here, since their checksum covers
	// more payload than the wire length byte admits.
	CRCRejects uint64 `metric:"crc_rejects"`

	// SeqGaps counts link-sequence discontinuities (datagrams missing
	// from the peer's numbering — real or simulated loss). A datagram
	// that arrives late, within 64 numbers, takes its gap back.
	SeqGaps uint64 `metric:"seq_gaps"`
	// Reordered counts datagrams arriving with an older sequence
	// number than already seen.
	Reordered uint64 `metric:"reordered"`

	// SimDropped/SimDuplicated/SimDelayed count the fault schedule's
	// interventions on this link's transmissions.
	SimDropped    uint64 `metric:"sim_dropped"`
	SimDuplicated uint64 `metric:"sim_duplicated"`
	SimDelayed    uint64 `metric:"sim_delayed"`

	// CorruptDatagrams counts received datagrams rejected by the
	// transport checksum — wire damage surfacing as whole-datagram loss.
	CorruptDatagrams uint64 `metric:"corrupt_datagrams"`
	// QueueDropped counts the client's uplink data datagrams that the
	// socket refused to send: each is lost, as it would be on the wire.
	// It keeps the name it had when a bounded queue fed the socket,
	// because scrapers and the benchmark harness read it.
	QueueDropped uint64 `metric:"queue_dropped"`
	// Rehellos counts session re-establishments: hellos carrying a new
	// epoch after the peer detected a dead link.
	Rehellos uint64 `metric:"rehellos"`
}

// FleetStats holds the fleet-level counters, returned by Fleet.Stats,
// and is their only declaration: each tagged field is one fleet.<name>
// line of Fleet.MetricsText. The counted fields live in the Fleet
// behind its stats mutex; Vehicles, Degraded, Restarts, Sessions and
// Uptime are read when Stats is called.
type FleetStats struct {
	Vehicles int `metric:"vehicles"`
	Degraded int `metric:"degraded"` // vehicles parked past their restart budget
	Restarts int `metric:"restarts"` // supervised restarts of all vehicles
	Sessions int `metric:"sessions"` // live GCS sessions

	// SessionsExpired counts sessions reaped for uplink silence, and
	// SessionsRejected joins refused by the full session table.
	SessionsExpired  uint64 `metric:"sessions_expired"`
	SessionsRejected uint64 `metric:"sessions_rejected"`
	// BadDatagrams counts received datagrams that failed to decode,
	// named no hosted vehicle or had an unknown type; CorruptDatagrams
	// those failing the transport checksum, plus uplink datagrams the
	// fault schedule corrupted.
	BadDatagrams     uint64 `metric:"bad_datagrams"`
	CorruptDatagrams uint64 `metric:"corrupt_datagrams"`
	// The chaos schedule's board panics, hangs and stalls, and the
	// datagrams, either way, that it partitioned or corrupted.
	ChaosBoardFaults uint64 `metric:"chaos_board_faults"`
	ChaosPartitioned uint64 `metric:"chaos_partitioned"`
	ChaosCorrupted   uint64 `metric:"chaos_corrupted"`
	// SendQueueDropped counts delayed downlink datagrams shed by the
	// sender's queue bound (drop-oldest).
	SendQueueDropped uint64 `metric:"send_queue_dropped"`
	// Re-randomizations served by FleetConfig.Provision, and those that
	// fell back to on-board randomization.
	ArmoryProvisioned uint64        `metric:"armory_provisioned"`
	ArmoryFallbacks   uint64        `metric:"armory_fallbacks"`
	Uptime            time.Duration `metric:"uptime_ms"`
}
