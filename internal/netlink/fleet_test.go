//mavr:wallclock — these are real-UDP integration tests: socket
// deadlines and latency measurement legitimately read the wall clock.

package netlink

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mavr/internal/attack"
	"mavr/internal/firmware"
)

var (
	imgOnce sync.Once
	imgVal  *firmware.Image
	imgErr  error
)

// testFirmware generates the vulnerable test application once; the
// image is read-only and shared by every vehicle in every test.
func testFirmware(t testing.TB) *firmware.Image {
	t.Helper()
	imgOnce.Do(func() {
		imgVal, imgErr = firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	})
	if imgErr != nil {
		t.Fatal(imgErr)
	}
	return imgVal
}

// waitClientSim blocks until c has received a datagram stamped at sim
// time target or later, so the downlink a monitor assertion reads has
// landed up to target.
func waitClientSim(t testing.TB, c *Client, target time.Duration) {
	t.Helper()
	end := time.Now().Add(time.Minute)
	for c.SimTime() < target {
		if time.Now().After(end) {
			t.Fatalf("client %d sim clock stalled at %v, want %v", c.cfg.SysID, c.SimTime(), target)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitSim blocks until every vehicle's sim clock reaches target.
func waitSim(t testing.TB, f *Fleet, target time.Duration, deadline time.Duration) {
	t.Helper()
	end := time.Now().Add(deadline)
	for {
		done := true
		for _, v := range f.Vehicles() {
			// A crash alone is survivable (the supervisor restarts the
			// board); only a vehicle parked as degraded is truly dead.
			if v.Degraded() {
				t.Fatalf("vehicle %d degraded: %v", v.SysID, v.Err())
			}
			if v.Snapshot().SimTime < target {
				done = false
			}
		}
		if done {
			return
		}
		if time.Now().After(end) {
			var lag []string
			for _, v := range f.Vehicles() {
				lag = append(lag, fmt.Sprintf("v%d=%v", v.SysID, v.Snapshot().SimTime))
			}
			t.Fatalf("fleet did not reach %v of sim time in %v: %s", target, deadline, strings.Join(lag, " "))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// The loopback acceptance test: a fleet of 64 independent UAVs served
// over real UDP sockets, one GCS client per vehicle, everyone healthy
// after more than a simulated second of flight.
func TestFleetLoopback64(t *testing.T) {
	vehicles := 64
	simTarget := 1100 * time.Millisecond
	if testing.Short() {
		vehicles, simTarget = 8, 400*time.Millisecond
	}
	f, err := NewFleet(FleetConfig{
		Vehicles: vehicles,
		Firmware: testFirmware(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	addr := f.Addr().String()
	clients := make([]*Client, vehicles)
	for i := range clients {
		c, err := DialClient(addr, ClientConfig{SysID: byte(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}

	waitSim(t, f, simTarget, 8*time.Minute)
	if got := f.Sessions(); got != vehicles {
		t.Errorf("sessions = %d, want %d", got, vehicles)
	}
	for i, c := range clients {
		waitClientSim(t, c, simTarget)
		mon := c.Monitor()
		st := c.Stats()
		if st.DatagramsIn == 0 {
			t.Errorf("client %d received no datagrams", i+1)
			continue
		}
		if mon.Pulses < 100 {
			t.Errorf("client %d: only %d pulses over %v of flight", i+1, mon.Pulses, simTarget)
		}
		if mon.Heartbeats == 0 {
			t.Errorf("client %d: no heartbeats", i+1)
		}
		if mon.Garbage != 0 || mon.HeartbeatErrors != 0 {
			t.Errorf("client %d: garbage=%d hbErr=%d on a clean link", i+1, mon.Garbage, mon.HeartbeatErrors)
		}
		if mon.CompromiseDetected(250 * time.Millisecond) {
			t.Errorf("client %d: healthy vehicle flagged: gaps=%d/%d silence=%v",
				i+1, mon.SeqGaps, mon.LinkGaps, mon.MaxSilence)
		}
	}

	metrics := f.MetricsText()
	if !strings.Contains(metrics, fmt.Sprintf("fleet.vehicles %d", vehicles)) {
		t.Errorf("metrics missing vehicle count:\n%s", metrics[:200])
	}
}

// A deliberately lossy, jittery link: the tolerant monitor books the
// loss as link gaps and still reports the vehicle healthy — the
// distinction that keeps stealth verdicts meaningful over UDP.
func TestFleetLossyLinkStaysHealthy(t *testing.T) {
	f, err := NewFleet(FleetConfig{
		Vehicles: 1,
		Firmware: testFirmware(t),
		Sim: SimConfig{
			Seed:     1234,
			DropRate: 0.20,
			DupRate:  0.05,
			Latency:  time.Millisecond,
			Jitter:   4 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	c, err := DialClient(f.Addr().String(), ClientConfig{SysID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	waitSim(t, f, 1100*time.Millisecond, 2*time.Minute)
	waitClientSim(t, c, 1100*time.Millisecond)

	sess := f.sessions.all()
	if len(sess) != 1 {
		t.Fatalf("%d sessions", len(sess))
	}
	st := sess[0].stats.Snapshot()
	if st.SimDropped == 0 {
		t.Errorf("20%% drop rate dropped nothing over %d datagrams", st.DatagramsOut+st.SimDropped)
	}
	mon := c.Monitor()
	cst := c.Stats()
	if mon.Pulses == 0 || mon.Heartbeats == 0 {
		t.Fatalf("no telemetry through the lossy link: pulses=%d hb=%d", mon.Pulses, mon.Heartbeats)
	}
	if mon.Garbage != 0 || mon.HeartbeatErrors != 0 {
		t.Errorf("record-aligned loss produced garbage=%d hbErr=%d", mon.Garbage, mon.HeartbeatErrors)
	}
	if mon.LinkGaps == 0 && cst.SeqGaps == 0 {
		t.Error("a 20%-loss link showed no gaps at all")
	}
	if mon.CompromiseDetected(300 * time.Millisecond) {
		t.Errorf("packet loss misread as compromise: seqGaps=%d linkGaps=%d silence=%v",
			mon.SeqGaps, mon.LinkGaps, mon.MaxSilence)
	}
}

// The paper's headline result, reproduced end to end over the network:
// a V2 stealthy attack injected through a real UDP socket corrupts the
// gyroscope configuration while the benign ground station — watching
// the same socket — sees nothing.
func TestStealthyAttackOverSocketEvadesMonitor(t *testing.T) {
	img := testFirmware(t)
	a, err := attack.Analyze(img.ELF)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := attack.BuildV2(a, attack.GyroCfgWrite(0x5A))
	if err != nil {
		t.Fatal(err)
	}

	f, err := NewFleet(FleetConfig{Vehicles: 1, Firmware: img})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	c, err := DialClient(f.Addr().String(), ClientConfig{SysID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Established cruise before the injection.
	waitSim(t, f, 200*time.Millisecond, time.Minute)
	c.SendFrame(attack.Frame(payload))

	// Wait for the chain to land (watch the snapshot, not the board —
	// the driver goroutine owns it).
	v := f.Vehicle(1)
	end := time.Now().Add(time.Minute)
	for v.Snapshot().GyroCfg != 0x5A {
		if time.Now().After(end) {
			t.Fatalf("attack never landed: gyrocfg=0x%02X after %v of sim",
				v.Snapshot().GyroCfg, v.Snapshot().SimTime)
		}
		time.Sleep(10 * time.Millisecond)
	}
	landedAt := v.Snapshot().SimTime

	// Fly on: the stealthy chain must keep telemetry flowing.
	waitSim(t, f, landedAt+400*time.Millisecond, time.Minute)
	waitClientSim(t, c, landedAt+400*time.Millisecond)

	mon := c.Monitor()
	if mon.Pulses == 0 || mon.Heartbeats == 0 {
		t.Fatalf("no telemetry after the attack: pulses=%d hb=%d", mon.Pulses, mon.Heartbeats)
	}
	if mon.CompromiseDetected(250 * time.Millisecond) {
		t.Errorf("stealthy attack detected over the socket: garbage=%d seqGaps=%d hbErr=%d silence=%v",
			mon.Garbage, mon.SeqGaps, mon.HeartbeatErrors, mon.MaxSilence)
	}
	// The falsified sensor value propagates into telemetry (raw 10 + 0x5A).
	if mon.LastGyro != 10+0x5A {
		t.Errorf("reported gyro = %d, want %d", mon.LastGyro, 10+0x5A)
	}

	// The uplink counters saw the oversize frame (checksum over more
	// payload than the length byte admits) without blocking it.
	sess := f.sessions.all()
	if len(sess) == 1 && sess[0].stats.CRCRejects.Load() == 0 {
		t.Log("note: oversize attack frame did not register as a CRC reject")
	}

	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Fleet closed: direct board access is now allowed.
	if got := v.Sys().App.CPU.Data[firmware.AddrGyroCfg]; got != 0x5A {
		t.Fatalf("gyro config = 0x%02X after close", got)
	}
}

// The contrast case: a V1 (crash) attack over the socket kills the
// application; the ground station sees the vehicle go silent — in
// simulated time, via the fleet's time beacons — even though the UDP
// link itself keeps delivering datagrams.
func TestV1CrashOverSocketIsDetected(t *testing.T) {
	img := testFirmware(t)
	a, err := attack.Analyze(img.ELF)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := attack.BuildV1(a, attack.GyroCfgWrite(0x5A))
	if err != nil {
		t.Fatal(err)
	}

	f, err := NewFleet(FleetConfig{Vehicles: 1, Firmware: img})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	c, err := DialClient(f.Addr().String(), ClientConfig{SysID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	waitSim(t, f, 200*time.Millisecond, time.Minute)
	c.SendFrame(attack.Frame(payload))
	start := f.Vehicle(1).Snapshot().SimTime
	waitSim(t, f, start+900*time.Millisecond, time.Minute)
	waitClientSim(t, c, start+900*time.Millisecond)

	mon := c.Monitor()
	if !mon.VehicleSilent(300 * time.Millisecond) {
		t.Errorf("crashed vehicle not reported silent: maxSilence=%v pulses=%d", mon.MaxSilence, mon.Pulses)
	}
	if !mon.CompromiseDetected(300 * time.Millisecond) {
		t.Error("V1 crash undetected over the socket")
	}
}

// Heartbeat-based session liveness: a station that stops talking is
// expired and stops consuming downlink fan-out.
func TestSessionExpiry(t *testing.T) {
	f, err := NewFleet(FleetConfig{
		Vehicles:       1,
		Firmware:       testFirmware(t),
		SessionTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	c, err := DialClient(f.Addr().String(), ClientConfig{SysID: 1, Keepalive: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	end := time.Now().Add(5 * time.Second)
	for f.Sessions() != 1 {
		if time.Now().After(end) {
			t.Fatal("session never established")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// No keepalives: the reaper must drop the session.
	for f.Sessions() != 0 {
		if time.Now().After(end) {
			t.Fatalf("session not expired (still %d live)", f.Sessions())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if f.ExpiredSessions() == 0 {
		t.Error("expiry not counted")
	}

	// Any fresh uplink datagram re-establishes the session.
	c.SendRaw(nil)
	for f.Sessions() != 1 {
		if time.Now().After(end) {
			t.Fatal("session not re-established after expiry")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
