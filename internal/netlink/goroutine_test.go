//mavr:wallclock — these tests count live goroutines and wait for
// keepalives on real sockets under wall-clock deadlines.

package netlink

import (
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// netlinkGoroutines counts this package's live goroutines by the
// function that started each one, e.g. "DialClient", read from the
// "created by" lines of runtime.Stack. The creator is known from the
// start, while a goroutine that has not run yet shows only a wrapper
// frame. Goroutines that the runtime, the testing package or another
// package started are not counted.
func netlinkGoroutines() map[string]int {
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	const createdBy = "created by mavr/internal/netlink."
	byCreator := make(map[string]int)
	for _, line := range strings.Split(string(buf[:n]), "\n") {
		if creator, ok := strings.CutPrefix(line, createdBy); ok {
			creator, _, _ = strings.Cut(creator, " in goroutine ")
			byCreator[creator]++
		}
	}
	return byCreator
}

// waitGoroutines waits, for at most five seconds, until exactly want
// goroutines started by the given functions are alive, and fails with
// every creator's count if they never are.
func waitGoroutines(t *testing.T, when string, want int, creators ...string) {
	t.Helper()
	end := time.Now().Add(5 * time.Second)
	for {
		byCreator := netlinkGoroutines()
		got := 0
		for _, c := range creators {
			got += byCreator[c]
		}
		if got == want {
			return
		}
		if time.Now().After(end) {
			t.Fatalf("%s: %d goroutines started by %v, want %d (all: %v)", when, got, creators, want, byCreator)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A client is one goroutine, its receive loop: DialClient starts it and
// Close ends it. The peer is a bare UDP socket, so no fleet goroutine
// is running.
func TestClientRunsOneGoroutine(t *testing.T) {
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	waitGoroutines(t, "before DialClient", 0, "DialClient")

	c, err := DialClient(peer.LocalAddr().String(), ClientConfig{SysID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitGoroutines(t, "after DialClient", 1, "DialClient")
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, "after Close", 0, "DialClient")
}

// A started fleet runs its read loop (uplink and session expiry), the
// delayed-datagram sender and one supervised driver per vehicle.
func TestFleetGoroutines(t *testing.T) {
	// Start starts the read loop and the drivers, newSender the sender;
	// (*Fleet).Close starts a drain watcher that lives until Close
	// returns.
	creators := []string{"(*Fleet).Start", "newSender", "(*Fleet).Close"}
	waitGoroutines(t, "before Start", 0, creators...)
	f, err := NewFleet(FleetConfig{Vehicles: 2, Firmware: testFirmware(t)})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitGoroutines(t, "after Start", 4, creators...)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, "after Close", 0, creators...)
}

// Keepalive hellos alone hold a session: a client that sends no uplink
// data, helloing every 30ms, outlives many 150ms session timeouts.
func TestKeepalivesHoldSession(t *testing.T) {
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

	c, err := DialClient(f.Addr().String(), ClientConfig{SysID: 1, Keepalive: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The dial's hello and 20 keepalives.
	end := time.Now().Add(time.Minute)
	for c.Stats().DatagramsOut < 21 {
		if time.Now().After(end) {
			t.Fatalf("only %d hellos sent", c.Stats().DatagramsOut)
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := f.Stats()
	if st.Sessions != 1 || st.SessionsExpired != 0 {
		t.Errorf("sessions %d, expired %d; want 1, 0", st.Sessions, st.SessionsExpired)
	}
}
