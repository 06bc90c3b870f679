//mavr:wallclock — real-UDP integration tests for the supervised fleet:
// deadlines, goroutine accounting and outage timing are wall-clock.

package netlink

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"mavr/internal/chaos"
	"mavr/internal/gcs"
)

// Scheduled chaos panics crash driver goroutines; the supervisor
// rebuilds the boards with the sim clock intact and the fleet flies
// on. The client watching through it all must never conclude the
// vehicle was compromised.
func TestFleetSupervisionRecoversPanics(t *testing.T) {
	ch := chaos.Config{Seed: 21, PanicRate: 0.02}
	// The schedule is pure: count the panics the driver will draw over
	// the flight so the test knows crashes really are on the menu.
	scheduled := 0
	for tick := uint64(0); tick < 100; tick++ {
		if ch.BoardFate(1, tick).Kind == chaos.FaultPanic {
			scheduled++
		}
	}
	if scheduled == 0 {
		t.Fatal("seed 21 schedules no panics in the first 100 ticks; pick another seed")
	}

	f, err := NewFleet(FleetConfig{
		Vehicles:      1,
		Firmware:      testFirmware(t),
		Chaos:         ch,
		RestartBudget: 1000,
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

	v := f.Vehicle(1)
	if got := v.Restarts(); got < scheduled {
		t.Errorf("restarts = %d, want at least the %d scheduled panics", got, scheduled)
	}
	if v.Degraded() {
		t.Fatalf("vehicle degraded despite ample budget: %v", v.Err())
	}
	if v.Err() == nil || !strings.Contains(v.Err().Error(), "chaos") {
		t.Errorf("last crash cause not recorded: %v", v.Err())
	}
	// Sim time survived every restart monotonically and kept advancing.
	if got := v.Snapshot().SimTime; got < 1100*time.Millisecond {
		t.Errorf("sim time %v did not survive restarts", got)
	}
	mon := c.Monitor()
	if mon.Pulses == 0 {
		t.Fatal("no telemetry through the crash/restart cycles")
	}
	if mon.Garbage != 0 || mon.HeartbeatErrors != 0 {
		t.Errorf("restarts leaked garbage=%d hbErr=%d to the monitor", mon.Garbage, mon.HeartbeatErrors)
	}
	if h := c.Health(2 * time.Second); h == gcs.HealthCompromised {
		t.Errorf("supervised restarts misread as compromise (silence=%v)", mon.MaxSilence)
	}
	if !strings.Contains(f.MetricsText(), "fleet.restarts") {
		t.Error("metrics missing restart counter")
	}
}

// A board that crashes on every tick exhausts its restart budget and
// is parked as degraded — visible in metrics — instead of restarting
// forever.
func TestFleetRestartBudgetDegrades(t *testing.T) {
	f, err := NewFleet(FleetConfig{
		Vehicles:      1,
		Firmware:      testFirmware(t),
		Chaos:         chaos.Config{Seed: 5, PanicRate: 1},
		RestartBudget: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	v := f.Vehicle(1)
	end := time.Now().Add(30 * time.Second)
	for !v.Degraded() {
		if time.Now().After(end) {
			t.Fatalf("vehicle never degraded (restarts=%d)", v.Restarts())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := v.Restarts(); got != 2 {
		t.Errorf("restarts = %d, want the budget of 2", got)
	}
	if v.Err() == nil {
		t.Error("degraded vehicle has no recorded cause")
	}
	if f.DegradedVehicles() != 1 {
		t.Errorf("DegradedVehicles = %d", f.DegradedVehicles())
	}
	metrics := f.MetricsText()
	for _, want := range []string{"fleet.degraded 1", "vehicle.1.degraded 1", "vehicle.1.restarts 2"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// Shutdown drain: Close must reap every fleet and client goroutine and
// session within its deadline — chaos soaks assert zero leaks across
// hundreds of cycles, so even one stuck goroutine is a failure.
func TestFleetCloseLeaksNothing(t *testing.T) {
	baseline := runtime.NumGoroutine()

	f, err := NewFleet(FleetConfig{
		Vehicles: 4,
		Firmware: testFirmware(t),
		Chaos:    chaos.Config{Seed: 9, PanicRate: 0.01, CorruptRate: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	var clients []*Client
	for i := 0; i < 4; i++ {
		c, err := DialClient(f.Addr().String(), ClientConfig{SysID: byte(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	waitSim(t, f, 200*time.Millisecond, time.Minute)

	for _, c := range clients {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	if got := f.Sessions(); got != 0 {
		t.Errorf("%d sessions survived Close", got)
	}

	// Goroutines unwind asynchronously after Close returns; poll with a
	// deadline rather than asserting instantaneously.
	end := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		}
		if time.Now().After(end) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Reconnect: when the downlink dies (here: the session expires under a
// silent keepalive), the client declares a link outage, re-hellos with
// a fresh epoch, and the healed span is charged to the link — never to
// the vehicle, and never as a compromise.
func TestClientReconnectWithEpoch(t *testing.T) {
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

	// Keepalives off: the session will expire, killing the downlink
	// until the client's outage detector re-hellos.
	c, err := DialClient(f.Addr().String(), ClientConfig{
		SysID:     1,
		Keepalive: time.Hour,
		LinkIdle:  200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	end := time.Now().Add(30 * time.Second)
	for c.Epoch() == 0 || c.Monitor().LinkOutages == 0 {
		if time.Now().After(end) {
			t.Fatalf("no reconnect: epoch=%d outages=%d", c.Epoch(), c.Monitor().LinkOutages)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := c.Stats().Rehellos; got == 0 {
		t.Error("re-hello not counted")
	}
	mon := c.Monitor()
	if !mon.LinkSilent(100 * time.Millisecond) {
		t.Errorf("outage not booked as link silence (maxLink=%v)", mon.MaxLinkSilence)
	}
	if mon.CompromiseDetected(30 * time.Second) {
		t.Error("link outage produced positive compromise evidence")
	}
	if h := c.Health(30 * time.Second); h == gcs.HealthCompromised || h == gcs.HealthVehicleDead {
		t.Errorf("pure link outage classified %v", h)
	}
	// The server adopted the bumped epoch on the rebuilt session.
	deadline := time.Now().Add(5 * time.Second)
	for {
		sess := f.sessions.all()
		if len(sess) == 1 && sess[0].epochSet.Load() && sess[0].epoch.Load() == c.Epoch() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server epoch never caught up (client epoch %d)", c.Epoch())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Mid-stream corruption: with the chaos schedule flipping bytes in
// flight, the transport checksum turns every hit into whole-datagram
// loss. The monitor sees gaps and corruption drops — degradation — but
// zero garbage, and the verdict stays clear of compromise.
func TestChaosCorruptionDegradesToLoss(t *testing.T) {
	f, err := NewFleet(FleetConfig{
		Vehicles: 1,
		Firmware: testFirmware(t),
		Chaos:    chaos.Config{Seed: 11, CorruptRate: 0.25},
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

	st := c.Stats()
	if st.CorruptDatagrams == 0 {
		t.Fatalf("25%% corruption corrupted nothing over %d datagrams", st.DatagramsIn)
	}
	mon := c.Monitor()
	if mon.CorruptDrops == 0 {
		t.Error("corruption drops not booked in the monitor")
	}
	if mon.Garbage != 0 || mon.HeartbeatErrors != 0 {
		t.Errorf("corruption leaked through the checksum: garbage=%d hbErr=%d",
			mon.Garbage, mon.HeartbeatErrors)
	}
	if mon.Pulses == 0 || mon.Heartbeats == 0 {
		t.Fatalf("no telemetry through the corrupting link: pulses=%d hb=%d", mon.Pulses, mon.Heartbeats)
	}
	if mon.CompromiseDetected(500 * time.Millisecond) {
		t.Error("wire corruption misread as compromise")
	}
	// Host scheduling stalls can stretch a wall arrival gap past the
	// outage threshold, escalating degraded to link-dead; both verdicts
	// keep the link's problems off the vehicle.
	if h := c.Health(500 * time.Millisecond); h != gcs.HealthDegraded && h != gcs.HealthLinkDead {
		t.Errorf("corrupting link classified %v, want degraded or link-dead", h)
	}
}
