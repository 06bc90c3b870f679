package gcs

import (
	"time"

	"mavr/internal/firmware"
	"mavr/internal/mavlink"
)

// Monitor watches the UAV's downlink, which interleaves two streams:
// fast telemetry pulses ([magic, seq, gyro, heading]) and periodic full
// MAVLink HEARTBEAT frames. It records the anomalies a ground station
// would alarm on — exactly what the paper's stealthy attack must avoid
// tripping.
type Monitor struct {
	// TolerateLinkLoss adapts the verdict to a lossy datagram transport
	// (internal/netlink): UDP loses whole record-aligned datagrams, so a
	// pulse sequence discontinuity with otherwise well-formed traffic is
	// link loss, not evidence of compromise. In this mode gaps are
	// counted in LinkGaps and excluded from CompromiseDetected; the
	// compromise signal the paper relies on becomes vehicle silence
	// (VehicleSilent) plus garbage/corrupt frames, which packet loss on
	// a record-aligned link cannot produce. The default (false) keeps
	// the strict serial-link rule.
	TolerateLinkLoss bool

	// Pulses is the count of well-formed pulses seen.
	Pulses int
	// SeqGaps counts discontinuities in the pulse sequence number
	// treated as anomalies (strict mode).
	SeqGaps int
	// LinkGaps counts discontinuities attributed to datagram loss
	// (TolerateLinkLoss mode).
	LinkGaps int
	// Garbage counts bytes that fit neither stream.
	Garbage int
	// MaxSilence is the longest observed downlink gap.
	MaxSilence time.Duration
	// LastGyro is the most recent reported gyro value.
	LastGyro byte
	// LastHeading is the most recent commanded heading.
	LastHeading byte

	// MaxLinkSilence is the longest span attributed to the link itself
	// being down (no datagrams arriving at all), as reported by the
	// feeder via FeedLinkIdle. Unlike MaxSilence it carries no
	// implication about the vehicle: a partitioned radio and a healthy
	// vehicle produce exactly this signature.
	MaxLinkSilence time.Duration
	// LinkOutages counts distinct link-down spans: each declared by
	// FeedLinkIdle and booked by the Feed that ends it.
	LinkOutages int
	// CorruptDrops counts datagrams the transport rejected for failed
	// integrity checks (NoteCorrupt) — wire damage surfacing as loss.
	CorruptDrops int

	// Heartbeats counts checksum-valid MAVLink HEARTBEAT frames.
	Heartbeats int
	// HeartbeatErrors counts frames that failed checksum validation.
	HeartbeatErrors int
	// LastStatus is the last reported MAV_STATE.
	LastStatus byte
	// RawIMUs counts checksum-valid RAW_IMU frames.
	RawIMUs int
	// LastXgyro is the most recent RAW_IMU x-gyro reading — the sensor
	// channel the paper's attack falsifies.
	LastXgyro int16
	// ParamEchoes counts PARAM_VALUE acknowledgements.
	ParamEchoes int
	// LastEcho is the most recent parameter acknowledgement.
	LastEcho *mavlink.ParamValue

	started     bool
	expectSeq   byte
	sawData     bool
	lastData    time.Duration
	sawArrival  bool
	lastArrival time.Duration
	linkDown    bool

	split StreamSplitter
	frame mavlink.Parser
}

// Feed consumes downlink bytes received up to simulated time now. Call
// it regularly (even with no data) so silence is measured. Every Feed
// is an *arrival*: evidence that the link was delivering at time now.
// When the feeder knows nothing arrived at all (the link itself is
// down), it calls FeedLinkIdle instead; the next Feed then books that
// outage against the link before it measures the vehicle.
func (m *Monitor) Feed(data []byte, now time.Duration) {
	if m.linkDown {
		m.bookOutage(now)
	}
	if m.sawData {
		if gap := now - m.lastData; gap > m.MaxSilence {
			m.MaxSilence = gap
		}
	}
	m.sawArrival = true
	m.lastArrival = now
	if len(data) > 0 {
		m.sawData = true
		m.lastData = now
	}
	for _, rec := range m.split.Feed(data) {
		m.record(rec)
	}
}

// FeedLinkIdle records that nothing has arrived between the last
// arrival and (estimated) time now, and declares the link down. It
// keeps MaxLinkSilence live while the outage is in progress; the next
// Feed books the outage.
func (m *Monitor) FeedLinkIdle(now time.Duration) {
	m.linkDown = true
	if !m.sawArrival {
		return
	}
	if gap := now - m.lastArrival; gap > m.MaxLinkSilence {
		m.MaxLinkSilence = gap
	}
}

// LinkDown reports whether FeedLinkIdle has declared an outage that no
// Feed has booked yet.
func (m *Monitor) LinkDown() bool { return m.linkDown }

// bookOutage attributes the span since the last arrival to a dead
// link: datagrams stopped arriving entirely, so nothing in that span
// says anything about the vehicle. The span is excluded from the
// vehicle-silence measurement (only telemetry silence observed while
// the link was demonstrably alive counts), which is what keeps a pure
// partition from tripping the stealth-attack verdict.
func (m *Monitor) bookOutage(now time.Duration) {
	m.linkDown = false
	if !m.sawArrival {
		return
	}
	outage := now - m.lastArrival
	if outage < 0 {
		outage = 0
	}
	m.LinkOutages++
	if outage > m.MaxLinkSilence {
		m.MaxLinkSilence = outage
	}
	if m.sawData {
		// Shift the telemetry-silence baseline past the outage,
		// preserving only the pre-outage silence (lastArrival-lastData).
		m.lastData = now - (m.lastArrival - m.lastData)
	}
	m.lastArrival = now
}

// NoteCorrupt records a datagram the transport dropped for a failed
// integrity check — link degradation, never compromise evidence (a
// record-aligned transport with checksums cannot deliver wire damage
// as garbage).
func (m *Monitor) NoteCorrupt() { m.CorruptDrops++ }

// record reads one downlink record, as StreamSplitter cut it: a pulse,
// a whole MAVLink frame, or one byte that fits neither stream.
func (m *Monitor) record(rec []byte) {
	switch rec[0] {
	case firmware.PulseMagic:
		seq := rec[1]
		if m.started && seq != m.expectSeq {
			if m.TolerateLinkLoss {
				m.LinkGaps++
			} else {
				m.SeqGaps++
			}
		}
		m.started = true
		m.expectSeq = seq + 1
		m.LastGyro = rec[2]
		m.LastHeading = rec[3]
		m.Pulses++
	case mavlink.Magic:
		// The record is exactly one frame, so the parser finishes (or
		// rejects) it on the last byte and is idle again after it.
		m.frame.StrictLength = true
		var f *mavlink.Frame
		for _, b := range rec {
			f = m.frame.Feed(b)
		}
		if f == nil {
			m.HeartbeatErrors++ // checksum or length rejected
			return
		}
		m.handleFrame(f)
	default:
		m.Garbage++
	}
}

func (m *Monitor) handleFrame(f *mavlink.Frame) {
	switch f.MsgID {
	case mavlink.MsgIDHeartbeat:
		hb, err := mavlink.UnmarshalHeartbeat(f.Payload)
		if err != nil {
			m.HeartbeatErrors++
			return
		}
		m.Heartbeats++
		m.LastStatus = hb.SystemStatus
	case mavlink.MsgIDRawIMU:
		imu, err := mavlink.UnmarshalRawIMU(f.Payload)
		if err != nil {
			m.HeartbeatErrors++
			return
		}
		m.RawIMUs++
		m.LastXgyro = imu.Xgyro
	case mavlink.MsgIDParamValue:
		pv, err := mavlink.UnmarshalParamValue(f.Payload)
		if err != nil {
			m.HeartbeatErrors++
			return
		}
		m.ParamEchoes++
		m.LastEcho = pv
	}
}

// CompromiseDetected applies the ground station's detection rule: the
// two worst grades of Classify — positive compromise evidence (garbage
// or a corrupt frame on the link, a pulse sequence discontinuity
// unless attributed to link loss, a non-active MAV_STATE) or vehicle
// silence longer than the threshold.
func (m *Monitor) CompromiseDetected(silenceThreshold time.Duration) bool {
	return m.Classify(silenceThreshold) >= HealthVehicleDead
}

// VehicleSilent reports the paper's compromise signal on its own: the
// vehicle stopped producing telemetry for longer than the threshold.
// Unlike sequence gaps, silence survives a lossy link — a healthy
// vehicle keeps transmitting through packet loss, so prolonged silence
// (measured against the feeder's clock) means the vehicle itself, not
// the link, went quiet.
func (m *Monitor) VehicleSilent(threshold time.Duration) bool {
	return m.MaxSilence > threshold
}

// LinkSilent reports whether the link itself was observed dead (no
// arrivals) for longer than the threshold.
func (m *Monitor) LinkSilent(threshold time.Duration) bool {
	return m.MaxLinkSilence > threshold
}

// Health is the monitor's graded verdict: instead of the binary
// compromised/clean answer, it separates the three failure identities
// a fleet operator must react to differently — a dead link (redial,
// don't scramble), a dead or wedged vehicle (the paper's compromise
// signal; the master's watchdog is already recovering it), and a
// degraded-but-working link (keep flying, expect gaps).
type Health int

// Health states, ordered from best to worst.
const (
	// HealthOK: telemetry flowing, no anomalies.
	HealthOK Health = iota
	// HealthDegraded: telemetry flowing through an impaired link —
	// datagram loss, corruption drops or outages occurred, but nothing
	// implicates the vehicle.
	HealthDegraded
	// HealthLinkDead: datagrams stopped arriving entirely for longer
	// than the threshold. Deliberately NOT a compromise verdict: a dead
	// link is indistinguishable from a dead ground radio.
	HealthLinkDead
	// HealthVehicleDead: the link was alive (datagrams arriving) but
	// the vehicle produced no telemetry beyond the threshold — the
	// paper's watchdog-visible failure signature.
	HealthVehicleDead
	// HealthCompromised: positive compromise evidence — garbage bytes,
	// strict-mode sequence gaps, corrupt frames, or a non-active
	// MAV_STATE.
	HealthCompromised
)

func (h Health) String() string {
	switch h {
	case HealthOK:
		return "ok"
	case HealthDegraded:
		return "degraded"
	case HealthLinkDead:
		return "link-dead"
	case HealthVehicleDead:
		return "vehicle-dead"
	case HealthCompromised:
		return "compromised"
	}
	return "unknown"
}

// Classify grades the monitor's whole observation history (worst state
// seen, not the instantaneous state): positive compromise evidence
// first, then vehicle silence, then link death, then degradation.
func (m *Monitor) Classify(silenceThreshold time.Duration) Health {
	if m.Garbage > 0 || m.SeqGaps > 0 || m.HeartbeatErrors > 0 {
		return HealthCompromised
	}
	if m.Heartbeats > 0 && m.LastStatus != mavlink.StateActive {
		return HealthCompromised
	}
	if m.VehicleSilent(silenceThreshold) {
		return HealthVehicleDead
	}
	if m.LinkSilent(silenceThreshold) {
		return HealthLinkDead
	}
	if m.LinkGaps > 0 || m.CorruptDrops > 0 || m.LinkOutages > 0 {
		return HealthDegraded
	}
	return HealthOK
}
