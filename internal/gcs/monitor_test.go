package gcs_test

// Edge-case coverage for the Monitor using synthetic byte streams:
// silence threshold boundaries, duplicated and out-of-order pulse
// sequence numbers (what datagram duplication and reordering on the
// netlink fabric actually produce), sequence wraparound, records split
// across Feed calls, and a fuzzed comparison with the byte-wise monitor
// it replaced.

import (
	"reflect"
	"testing"
	"time"

	"mavr/internal/firmware"
	"mavr/internal/gcs"
	"mavr/internal/mavlink"
)

func pulse(seq byte) []byte {
	return []byte{firmware.PulseMagic, seq, 10, 0}
}

// VehicleSilent is a strict > comparison: a gap of exactly the
// threshold is still tolerated, one step past it is not.
func TestMonitorSilenceThresholdEdge(t *testing.T) {
	m := &gcs.Monitor{}
	m.Feed(pulse(1), 0)
	m.Feed(nil, silenceThreshold)
	if m.MaxSilence != silenceThreshold {
		t.Fatalf("MaxSilence = %v, want %v", m.MaxSilence, silenceThreshold)
	}
	if m.VehicleSilent(silenceThreshold) {
		t.Error("gap equal to the threshold flagged as silence")
	}
	m.Feed(nil, silenceThreshold+time.Microsecond)
	if !m.VehicleSilent(silenceThreshold) {
		t.Error("gap past the threshold not flagged")
	}
}

// Silence is measured from the first received byte: a link that never
// carried data is an unconnected link, not a silent vehicle.
func TestMonitorNoTrafficIsNotSilence(t *testing.T) {
	m := &gcs.Monitor{}
	m.Feed(nil, 0)
	m.Feed(nil, time.Hour)
	if m.MaxSilence != 0 || m.VehicleSilent(silenceThreshold) {
		t.Error("silence accumulated before any downlink data")
	}
	if m.CompromiseDetected(silenceThreshold) {
		t.Error("empty link flagged as compromise")
	}
}

// MaxSilence keeps the longest gap even after traffic resumes, so a
// transient outage is still visible in the final verdict.
func TestMonitorMaxSilenceRetainsLongestGap(t *testing.T) {
	m := &gcs.Monitor{}
	m.Feed(pulse(1), 0)
	m.Feed(pulse(2), 150*time.Millisecond) // long gap
	m.Feed(pulse(3), 160*time.Millisecond) // short gap
	if m.MaxSilence != 150*time.Millisecond {
		t.Errorf("MaxSilence = %v, want 150ms", m.MaxSilence)
	}
}

// A duplicated datagram replays an already-seen sequence number. The
// monitor books one gap for the replay (tolerant: link gap) and then
// resynchronizes on the next in-order pulse.
func TestMonitorDuplicatedPulseSeq(t *testing.T) {
	m := &gcs.Monitor{TolerateLinkLoss: true}
	for _, s := range []byte{1, 2, 2, 3} {
		m.Feed(pulse(s), 0)
	}
	if m.Pulses != 4 {
		t.Errorf("pulses = %d, want 4", m.Pulses)
	}
	if m.LinkGaps != 1 || m.SeqGaps != 0 {
		t.Errorf("linkGaps=%d seqGaps=%d, want 1/0", m.LinkGaps, m.SeqGaps)
	}
	if m.CompromiseDetected(silenceThreshold) {
		t.Error("tolerant monitor flagged a duplicated datagram")
	}

	strict := &gcs.Monitor{}
	for _, s := range []byte{1, 2, 2, 3} {
		strict.Feed(pulse(s), 0)
	}
	if strict.SeqGaps != 1 || !strict.CompromiseDetected(silenceThreshold) {
		t.Errorf("strict monitor: seqGaps=%d, want 1 and a compromise verdict", strict.SeqGaps)
	}
}

// Reordered datagrams break the expectation on both edges of the swap:
// each displaced pulse counts as its own discontinuity.
func TestMonitorOutOfOrderPulseSeq(t *testing.T) {
	m := &gcs.Monitor{TolerateLinkLoss: true}
	for _, s := range []byte{1, 3, 2, 4} {
		m.Feed(pulse(s), 0)
	}
	if m.Pulses != 4 {
		t.Errorf("pulses = %d, want 4", m.Pulses)
	}
	// 3 after 1 (expect 2), 2 after 3 (expect 4), 4 after 2 (expect 3).
	if m.LinkGaps != 3 {
		t.Errorf("linkGaps = %d, want 3", m.LinkGaps)
	}
}

// The pulse sequence counter is a byte; 255 -> 0 is continuity, not a
// discontinuity.
func TestMonitorSeqWraparound(t *testing.T) {
	m := &gcs.Monitor{}
	m.Feed(pulse(254), 0)
	m.Feed(pulse(255), 0)
	m.Feed(pulse(0), 0)
	m.Feed(pulse(1), 0)
	if m.SeqGaps != 0 || m.LinkGaps != 0 {
		t.Errorf("wraparound miscounted: seqGaps=%d linkGaps=%d", m.SeqGaps, m.LinkGaps)
	}
	if m.Pulses != 4 {
		t.Errorf("pulses = %d, want 4", m.Pulses)
	}
}

// Records are framed across Feed calls: a pulse and a full MAVLink
// frame dribbled in one byte per Feed call parse identically to a
// single contiguous delivery, and the dribble never reads as garbage.
func TestMonitorRecordsSplitAcrossFeeds(t *testing.T) {
	hb := &mavlink.Heartbeat{SystemStatus: mavlink.StateActive, MavlinkVersion: 3}
	fr := &mavlink.Frame{MsgID: mavlink.MsgIDHeartbeat, SysID: 1, CompID: 1, Payload: hb.Marshal()}
	wire, err := fr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var stream []byte
	stream = append(stream, pulse(5)...)
	stream = append(stream, wire...)
	stream = append(stream, pulse(6)...)

	m := &gcs.Monitor{}
	for i, b := range stream {
		m.Feed([]byte{b}, time.Duration(i)*time.Millisecond)
	}
	if m.Pulses != 2 || m.Heartbeats != 1 {
		t.Errorf("pulses=%d heartbeats=%d, want 2/1", m.Pulses, m.Heartbeats)
	}
	if m.Garbage != 0 || m.HeartbeatErrors != 0 || m.SeqGaps != 0 {
		t.Errorf("dribbled stream misparsed: garbage=%d frameErrors=%d seqGaps=%d",
			m.Garbage, m.HeartbeatErrors, m.SeqGaps)
	}
	if m.CompromiseDetected(silenceThreshold) {
		t.Error("clean dribbled stream flagged")
	}
}

// Tolerant mode reclassifies gaps but must not dull the remaining
// signals: after heavy link loss, prolonged silence still trips the
// verdict, and LinkGaps alone never do.
func TestMonitorLinkGapsVersusSilenceVerdicts(t *testing.T) {
	m := &gcs.Monitor{TolerateLinkLoss: true}
	for i, s := range []byte{1, 9, 17, 25} { // 3 gaps
		m.Feed(pulse(s), time.Duration(i)*10*time.Millisecond)
	}
	if m.LinkGaps != 3 {
		t.Fatalf("linkGaps = %d, want 3", m.LinkGaps)
	}
	if m.CompromiseDetected(silenceThreshold) {
		t.Error("link gaps alone tripped the tolerant verdict")
	}
	m.Feed(nil, time.Second) // now the vehicle goes quiet
	if !m.VehicleSilent(silenceThreshold) || !m.CompromiseDetected(silenceThreshold) {
		t.Error("silence after link loss not detected")
	}
}

// A pure link outage — datagrams stop arriving entirely, then resume —
// must never be charged to the vehicle: FeedLinkIdle declares the
// outage, the Feed that ends it re-baselines the vehicle-silence clock
// and books the span as link silence, and the final classification is
// link-dead/degraded rather than compromise.
func TestMonitorLinkOutageIsNotVehicleSilence(t *testing.T) {
	m := &gcs.Monitor{TolerateLinkLoss: true}
	m.Feed(pulse(1), 0)
	m.Feed(pulse(2), 50*time.Millisecond)
	// 400ms of total arrival silence: a partition, twice the threshold.
	m.FeedLinkIdle(250 * time.Millisecond)
	if m.MaxLinkSilence != 200*time.Millisecond {
		t.Fatalf("MaxLinkSilence = %v during outage", m.MaxLinkSilence)
	}
	if !m.LinkDown() || m.LinkOutages != 0 {
		t.Fatalf("outage not declared (LinkDown=%v) or booked early (LinkOutages=%d)", m.LinkDown(), m.LinkOutages)
	}
	m.Feed(pulse(3), 450*time.Millisecond)
	if m.LinkDown() {
		t.Error("the Feed that ended the outage left the link down")
	}
	if m.VehicleSilent(silenceThreshold) {
		t.Errorf("partition charged as vehicle silence: MaxSilence=%v", m.MaxSilence)
	}
	if !m.LinkSilent(silenceThreshold) {
		t.Errorf("outage not booked as link silence: MaxLinkSilence=%v", m.MaxLinkSilence)
	}
	if m.LinkOutages != 1 {
		t.Errorf("LinkOutages = %d, want 1", m.LinkOutages)
	}
	if m.CompromiseDetected(silenceThreshold) {
		t.Error("pure link outage flagged as compromise")
	}
	if got := m.Classify(silenceThreshold); got != gcs.HealthLinkDead {
		t.Errorf("Classify = %v, want link-dead", got)
	}
}

// Booking an outage preserves silence accrued while the link was still
// alive: pre-outage vehicle silence plus post-outage vehicle silence
// both count, only the unattributable outage span is excluded.
func TestMonitorOutagePreservesPreOutageSilence(t *testing.T) {
	m := &gcs.Monitor{TolerateLinkLoss: true}
	m.Feed(pulse(1), 0)
	// 150ms of alive-link silence (beacons with no telemetry).
	m.Feed(nil, 150*time.Millisecond)
	// Then the link dies for 10 seconds, until an empty beacon arrives.
	m.FeedLinkIdle(10150 * time.Millisecond)
	m.Feed(nil, 10150*time.Millisecond)
	// Link back; vehicle still silent for another 100ms.
	m.Feed(nil, 10250*time.Millisecond)
	want := 250 * time.Millisecond
	if m.MaxSilence != want {
		t.Errorf("MaxSilence = %v, want %v (150ms pre + 100ms post outage)", m.MaxSilence, want)
	}
	if !m.VehicleSilent(silenceThreshold) {
		t.Error("accumulated alive-link silence past threshold not flagged")
	}
	if got := m.Classify(silenceThreshold); got != gcs.HealthVehicleDead {
		t.Errorf("Classify = %v, want vehicle-dead", got)
	}
}

// The graded taxonomy: ok → degraded (corrupt drops / link gaps) →
// compromised (garbage), in severity order.
func TestMonitorClassifyOrdering(t *testing.T) {
	m := &gcs.Monitor{TolerateLinkLoss: true}
	m.Feed(pulse(1), 0)
	m.Feed(pulse(2), 10*time.Millisecond)
	if got := m.Classify(silenceThreshold); got != gcs.HealthOK {
		t.Fatalf("clean link Classify = %v", got)
	}
	m.NoteCorrupt()
	if got := m.Classify(silenceThreshold); got != gcs.HealthDegraded {
		t.Fatalf("after corrupt drop Classify = %v, want degraded", got)
	}
	m.Feed(pulse(9), 20*time.Millisecond) // tolerated gap
	if m.LinkGaps == 0 {
		t.Fatal("tolerant gap not booked")
	}
	if got := m.Classify(silenceThreshold); got != gcs.HealthDegraded {
		t.Fatalf("after link gap Classify = %v, want degraded", got)
	}
	m.Feed([]byte{0xEE}, 30*time.Millisecond) // garbage byte
	if got := m.Classify(silenceThreshold); got != gcs.HealthCompromised {
		t.Fatalf("after garbage Classify = %v, want compromised", got)
	}
	if !m.CompromiseDetected(silenceThreshold) {
		t.Error("Classify and CompromiseDetected disagree on garbage")
	}
}

// Health values render stable names (they appear in traces and
// metrics).
func TestHealthStrings(t *testing.T) {
	for h, want := range map[gcs.Health]string{
		gcs.HealthOK: "ok", gcs.HealthDegraded: "degraded",
		gcs.HealthLinkDead: "link-dead", gcs.HealthVehicleDead: "vehicle-dead",
		gcs.HealthCompromised: "compromised", gcs.Health(99): "unknown",
	} {
		if h.String() != want {
			t.Errorf("Health(%d).String() = %q, want %q", int(h), h, want)
		}
	}
}

// refMonitor is the byte-wise monitor Monitor replaced, kept as the
// oracle of FuzzMonitorFeed: a state machine that reads the downlink
// one byte at a time, with outages booked by the feeder
// (noteLinkOutage) instead of by the next Feed. Its counters live in
// an embedded gcs.Monitor, whose methods it never calls, so both
// monitors expose the same counter fields.
type refMonitor struct {
	gcs.Monitor

	started     bool
	expectSeq   byte
	sawData     bool
	lastData    time.Duration
	sawArrival  bool
	lastArrival time.Duration

	mode    int
	pulse   []byte
	frame   mavlink.Parser
	frameN  int
	frameLn int
}

const (
	refIdle = iota
	refPulse
	refFrame
)

func (m *refMonitor) Feed(data []byte, now time.Duration) {
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
	for _, b := range data {
		m.step(b)
	}
}

func (m *refMonitor) FeedLinkIdle(now time.Duration) {
	if !m.sawArrival {
		return
	}
	if gap := now - m.lastArrival; gap > m.MaxLinkSilence {
		m.MaxLinkSilence = gap
	}
}

func (m *refMonitor) noteLinkOutage(now time.Duration) {
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
		m.lastData = now - (m.lastArrival - m.lastData)
	}
	m.lastArrival = now
}

func (m *refMonitor) NoteCorrupt() { m.CorruptDrops++ }

func (m *refMonitor) step(b byte) {
	switch m.mode {
	case refIdle:
		switch b {
		case firmware.PulseMagic:
			m.mode = refPulse
			m.pulse = m.pulse[:0]
		case mavlink.Magic:
			m.mode = refFrame
			m.frame = mavlink.Parser{StrictLength: true}
			m.frame.Feed(b)
			m.frameN = 1
			m.frameLn = -1
		default:
			m.Garbage++
		}
	case refPulse:
		m.pulse = append(m.pulse, b)
		if len(m.pulse) == firmware.PulseSize-1 {
			seq, gyro, heading := m.pulse[0], m.pulse[1], m.pulse[2]
			if m.started && seq != m.expectSeq {
				if m.TolerateLinkLoss {
					m.LinkGaps++
				} else {
					m.SeqGaps++
				}
			}
			m.started = true
			m.expectSeq = seq + 1
			m.LastGyro = gyro
			m.LastHeading = heading
			m.Pulses++
			m.mode = refIdle
		}
	case refFrame:
		f := m.frame.Feed(b)
		m.frameN++
		if m.frameN == 2 {
			m.frameLn = 6 + int(b) + 2
		}
		if f != nil {
			m.handleFrame(f)
			m.mode = refIdle
			return
		}
		if m.frameLn > 0 && m.frameN >= m.frameLn {
			m.HeartbeatErrors++
			m.mode = refIdle
		}
	}
}

func (m *refMonitor) handleFrame(f *mavlink.Frame) {
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

func (m *refMonitor) CompromiseDetected(threshold time.Duration) bool {
	if m.Garbage > 0 || m.SeqGaps > 0 || m.HeartbeatErrors > 0 {
		return true
	}
	if m.Heartbeats > 0 && m.LastStatus != mavlink.StateActive {
		return true
	}
	return m.MaxSilence > threshold
}

func (m *refMonitor) Classify(threshold time.Duration) gcs.Health {
	if m.Garbage > 0 || m.SeqGaps > 0 || m.HeartbeatErrors > 0 {
		return gcs.HealthCompromised
	}
	if m.Heartbeats > 0 && m.LastStatus != mavlink.StateActive {
		return gcs.HealthCompromised
	}
	if m.MaxSilence > threshold {
		return gcs.HealthVehicleDead
	}
	if m.MaxLinkSilence > threshold {
		return gcs.HealthLinkDead
	}
	if m.LinkGaps > 0 || m.CorruptDrops > 0 || m.LinkOutages > 0 {
		return gcs.HealthDegraded
	}
	return gcs.HealthOK
}

// frameWire marshals one downlink frame, oversize payloads included.
func frameWire(id byte, payload []byte) []byte {
	return (&mavlink.Frame{MsgID: id, SysID: 1, CompID: 1, Payload: payload}).MarshalOversize()
}

// The record-level monitor must end every feed exactly where the
// byte-wise reference does: arbitrary bytes, cut into arbitrary Feed
// chunks and interleaved with FeedLinkIdle (and corruption drops), in
// strict and tolerant mode. Each schedule byte c advances the clock by
// (c%13)*10ms and then, by its top bits, feeds the next c&0x3F stream
// bytes (an empty Feed included), declares the link idle, or notes a
// corruption drop; the rest of the stream goes in one last Feed. The
// reference books outages the way the old feeders did: noteLinkOutage
// just before the Feed that follows a FeedLinkIdle.
func FuzzMonitorFeed(f *testing.F) {
	hb := &mavlink.Heartbeat{SystemStatus: mavlink.StateActive, MavlinkVersion: 3}
	standby := &mavlink.Heartbeat{SystemStatus: 3, MavlinkVersion: 3}
	imu := &mavlink.RawIMU{Xgyro: -42}
	echo := &mavlink.ParamValue{ParamID: "RATE_RLL_P", ParamValue: 2}
	good := frameWire(mavlink.MsgIDHeartbeat, hb.Marshal())
	badCRC := append([]byte(nil), good...)
	badCRC[len(badCRC)-1] ^= 0x55
	var clean []byte
	for i := byte(0); i < 6; i++ {
		clean = append(clean, pulse(i)...)
		clean = append(clean, frameWire(mavlink.MsgIDRawIMU, imu.Marshal())...)
	}
	clean = append(clean, good...)
	clean = append(clean, frameWire(mavlink.MsgIDParamValue, echo.Marshal())...)
	for _, seed := range []struct {
		stream, schedule []byte
		tolerate         bool
	}{
		{clean, []byte{3, 4, 1, 63, 0, 9}, false},
		{clean, []byte{1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}, true},
		{clean, []byte{4, 0x8C, 0x8C, 0x88, 4, 0xC1, 0x8C, 20}, true},
		{clean, []byte{4, 0x40, 0x8C, 0x40, 4}, true}, // silence before and after an outage
		{append(append(pulse(1), pulse(3)...), pulse(2)...), []byte{0x84, 4, 4}, false},
		{append(append(pulse(1), pulse(3)...), pulse(2)...), []byte{0x84, 4, 0x8F, 0x8F, 4}, true},
		{append(append([]byte{0xEE, 0x00}, badCRC...), frameWire(mavlink.MsgIDHeartbeat, make([]byte, 10))...), []byte{1, 1, 0x8C}, true},
		{append(frameWire(mavlink.MsgIDHeartbeat, standby.Marshal()), frameWire(0x7E, []byte{1, 2})...), nil, false},
		{append(pulse(9), mavlink.Magic), []byte{0x8C, 0x8C, 1, 0}, true},
		{nil, []byte{0x8C, 0, 0x8C, 0, 5}, true},
	} {
		f.Add(seed.stream, seed.schedule, seed.tolerate)
	}
	f.Fuzz(func(t *testing.T, stream, schedule []byte, tolerate bool) {
		m := &gcs.Monitor{TolerateLinkLoss: tolerate}
		ref := &refMonitor{Monitor: gcs.Monitor{TolerateLinkLoss: tolerate}}
		var now time.Duration
		refOutage := false
		feed := func(chunk []byte) {
			if refOutage {
				ref.noteLinkOutage(now)
				refOutage = false
			}
			ref.Feed(chunk, now)
			m.Feed(chunk, now)
		}
		for _, c := range schedule {
			now += time.Duration(c%13) * 10 * time.Millisecond
			switch c >> 6 {
			case 2:
				ref.FeedLinkIdle(now)
				refOutage = true
				m.FeedLinkIdle(now)
			case 3:
				ref.NoteCorrupt()
				m.NoteCorrupt()
			default:
				n := min(int(c&0x3F), len(stream))
				feed(stream[:n])
				stream = stream[n:]
			}
			if m.LinkDown() != refOutage {
				t.Fatalf("LinkDown = %v, reference outage = %v", m.LinkDown(), refOutage)
			}
		}
		feed(stream)

		got, want := reflect.ValueOf(*m), reflect.ValueOf(ref.Monitor)
		for i := 0; i < got.NumField(); i++ {
			field := got.Type().Field(i)
			if !field.IsExported() {
				continue
			}
			if g, w := got.Field(i).Interface(), want.Field(i).Interface(); !reflect.DeepEqual(g, w) {
				t.Errorf("%s = %v, reference %v", field.Name, g, w)
			}
		}
		for _, th := range []time.Duration{50 * time.Millisecond, silenceThreshold, time.Second} {
			if g, w := m.Classify(th), ref.Classify(th); g != w {
				t.Errorf("Classify(%v) = %v, reference %v", th, g, w)
			}
			if g, w := m.CompromiseDetected(th), ref.CompromiseDetected(th); g != w {
				t.Errorf("CompromiseDetected(%v) = %v, reference %v", th, g, w)
			}
		}
	})
}
