//mavr:wallclock — sessions are stamped with the wall clock, and the
// rejection test waits on a real UDP fleet with a deadline.

package netlink

import (
	"net"
	"regexp"
	"testing"
	"time"
)

// TestFleetMetricsText pins the whole exposition of an unstarted
// two-vehicle fleet with one session. Every fleet and link counter
// holds a distinct value, so a swapped name fails; only the uptime is
// masked.
func TestFleetMetricsText(t *testing.T) {
	f, err := NewFleet(FleetConfig{Vehicles: 2, Firmware: testFirmware(t)})
	if err != nil {
		t.Fatal(err)
	}
	sess, _ := f.sessions.lookup(testAddr(9001), 1, time.Now())
	if sess == nil {
		t.Fatal("lookup rejected the first session")
	}

	f.vehicles[0].restarts.Store(3)
	f.vehicles[0].publish()
	f.vehicles[1].restarts.Store(5)
	f.vehicles[1].snap.Store(VehicleSnapshot{SysID: 2, SimTime: 201*time.Millisecond + 999*time.Microsecond,
		Ticks: 202, Running: true, GyroCfg: 203, Reflashes: 204, Restarts: 205})
	f.stats = FleetStats{SessionsExpired: 11, SessionsRejected: 12, BadDatagrams: 13, CorruptDatagrams: 14,
		ChaosBoardFaults: 15, ChaosPartitioned: 16, ChaosCorrupted: 17, SendQueueDropped: 18,
		ArmoryProvisioned: 19, ArmoryFallbacks: 20}
	sess.stats = LinkStatsSnapshot{DatagramsIn: 101, DatagramsOut: 102, BytesIn: 103, BytesOut: 104,
		RecordsOut: 105, UplinkFrames: 106, CRCRejects: 107, SeqGaps: 108, Reordered: 109,
		SimDropped: 110, SimDuplicated: 111, SimDelayed: 112,
		CorruptDatagrams: 113, QueueDropped: 114, Rehellos: 115}

	got := regexp.MustCompile(`(?m)^fleet\.uptime_ms \d+$`).ReplaceAllString(f.MetricsText(), "fleet.uptime_ms -")
	const want = `fleet.armory_fallbacks 20
fleet.armory_provisioned 19
fleet.bad_datagrams 13
fleet.chaos_board_faults 15
fleet.chaos_corrupted 17
fleet.chaos_partitioned 16
fleet.corrupt_datagrams 14
fleet.degraded 0
fleet.restarts 8
fleet.send_queue_dropped 18
fleet.sessions 1
fleet.sessions_expired 11
fleet.sessions_rejected 12
fleet.uptime_ms -
fleet.vehicles 2
link.127.0.0.1:9001|1.bytes_in 103
link.127.0.0.1:9001|1.bytes_out 104
link.127.0.0.1:9001|1.corrupt_datagrams 113
link.127.0.0.1:9001|1.crc_rejects 107
link.127.0.0.1:9001|1.datagrams_in 101
link.127.0.0.1:9001|1.datagrams_out 102
link.127.0.0.1:9001|1.queue_dropped 114
link.127.0.0.1:9001|1.records_out 105
link.127.0.0.1:9001|1.rehellos 115
link.127.0.0.1:9001|1.reordered 109
link.127.0.0.1:9001|1.seq_gaps 108
link.127.0.0.1:9001|1.sim_delayed 112
link.127.0.0.1:9001|1.sim_dropped 110
link.127.0.0.1:9001|1.sim_duplicated 111
link.127.0.0.1:9001|1.uplink_frames 106
vehicle.1.degraded 0
vehicle.1.gyrocfg 0
vehicle.1.reflashes 0
vehicle.1.restarts 3
vehicle.1.running 1
vehicle.1.simtime_ms 0
vehicle.1.ticks 0
vehicle.2.degraded 0
vehicle.2.gyrocfg 203
vehicle.2.reflashes 204
vehicle.2.restarts 205
vehicle.2.running 1
vehicle.2.simtime_ms 201
vehicle.2.ticks 202
`
	if got != want {
		t.Fatalf("metrics:\n%s\nwant:\n%s", got, want)
	}
}

// A join past the session table's cap is refused and counted in
// fleet.sessions_rejected.
func TestFleetCountsRejectedSessions(t *testing.T) {
	f, err := NewFleet(FleetConfig{Vehicles: 1, Firmware: testFirmware(t)})
	if err != nil {
		t.Fatal(err)
	}
	f.sessions = newSessionTable(1)
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 2; i++ {
		c, err := DialClient(f.Addr().String(), ClientConfig{SysID: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	end := time.Now().Add(10 * time.Second)
	for st := f.Stats(); st.SessionsRejected == 0 || st.Sessions != 1; st = f.Stats() {
		if time.Now().After(end) {
			t.Fatalf("sessions %d, rejected %d; want 1 and at least 1", st.Sessions, st.SessionsRejected)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The sender's delay queue sheds its oldest datagrams past
// maxSenderQueue, and send reports how many it shed.
func TestSenderShedsOldest(t *testing.T) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	s := newSender(conn)
	defer s.close()
	addr := conn.LocalAddr().(*net.UDPAddr)
	var shed uint64
	for i := 0; i < maxSenderQueue+3; i++ {
		shed += s.send(addr, []byte{byte(i >> 8), byte(i)}, time.Hour)
	}
	if shed != 3 {
		t.Errorf("shed %d datagrams, want 3", shed)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, head := len(s.queue), s.queue[0].pkt; n != maxSenderQueue || head[0] != 0 || head[1] != 3 {
		t.Errorf("queue holds %d datagrams, oldest %v; want %d, [0 3]", n, head, maxSenderQueue)
	}
}
