//mavr:wallclock — session liveness (lastSeen/expire) is
// wall-clock by design; these tests drive it with real timestamps.

package netlink

import (
	"net"
	"testing"
	"time"
)

func testAddr(port int) *net.UDPAddr {
	return &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port}
}

// A hello carrying a new epoch resets uplink sequence tracking: the
// peer restarted its numbering, and stale expectations must not charge
// the fresh stream with phantom gaps.
func TestSessionRehelloResetsTracking(t *testing.T) {
	tab := newSessionTable(0)
	s, existed := tab.lookup(testAddr(9001), 1, time.Now())
	if existed || s == nil {
		t.Fatalf("fresh lookup: sess=%v existed=%v", s, existed)
	}
	if s.rehello(0) {
		t.Error("first hello counted as a re-hello")
	}
	s.rx.track(0, &s.stats)
	s.rx.track(1, &s.stats)

	if !s.rehello(1) {
		t.Fatal("epoch change not treated as a re-hello")
	}
	s.rx.track(0, &s.stats) // the new epoch's numbering restarts at zero
	if got := s.stats.SeqGaps; got != 0 {
		t.Errorf("restarted numbering charged %d gaps", got)
	}
	if got := s.stats.Rehellos; got != 1 {
		t.Errorf("rehellos = %d, want 1", got)
	}

	// A same-epoch keepalive hello is a refresh, not a reset.
	s.rx.track(1, &s.stats)
	if s.rehello(1) {
		t.Error("same-epoch hello treated as a re-hello")
	}
	if s.rx.next != 2 {
		t.Errorf("keepalive hello reset rx tracking (next=%d)", s.rx.next)
	}
}

// Epoch comparison is change-based, so the counter wrapping back
// through zero still triggers a clean reset.
func TestSessionEpochWraparound(t *testing.T) {
	s := &session{}
	s.rehello(^uint32(0))
	s.rx.track(7, &s.stats)
	if !s.rehello(0) {
		t.Fatal("wraparound to epoch 0 not treated as a re-hello")
	}
	s.rx.track(0, &s.stats)
	if got := s.stats.SeqGaps; got != 0 {
		t.Errorf("wraparound reset charged %d gaps", got)
	}
}

// rxSeq charges exactly the skipped sequence numbers as gaps and each
// older (or repeated) number as one reorder; a late number still inside
// the 64-number window takes its gap back, a repeat or an older one
// does not.
func TestRxSeqAccounting(t *testing.T) {
	for _, tc := range []struct {
		name            string
		seqs            []uint32
		gaps, reordered uint64
		next            uint32
	}{
		{"first datagram", []uint32{41}, 0, 0, 42},
		{"in order", []uint32{0, 1, 2, 3}, 0, 0, 4},
		{"gap of 3", []uint32{0, 1, 5}, 3, 0, 6},
		{"older sequence", []uint32{0, 1, 5, 2}, 2, 1, 6},
		{"repeated sequence", []uint32{7, 7}, 0, 1, 8},
		{"swapped pair", []uint32{1, 3, 2, 4}, 0, 1, 5},
		{"late then repeated", []uint32{0, 2, 1, 1}, 0, 2, 3},
		{"repeat is no fill", []uint32{0, 2, 2}, 1, 1, 3},
		{"older than the window", []uint32{0, 100, 99, 30}, 98, 2, 101},
	} {
		var rx rxSeq
		var st LinkStatsSnapshot
		for _, seq := range tc.seqs {
			rx.track(seq, &st)
		}
		if gaps, reordered := st.SeqGaps, st.Reordered; gaps != tc.gaps || reordered != tc.reordered || rx.next != tc.next {
			t.Errorf("%s: gaps %d, reordered %d, next %d; want %d, %d, %d",
				tc.name, gaps, reordered, rx.next, tc.gaps, tc.reordered, tc.next)
		}
	}
}

func TestHelloEpochParsing(t *testing.T) {
	if got := helloEpoch(nil); got != 0 {
		t.Errorf("legacy hello epoch = %d", got)
	}
	if got := helloEpoch([]byte{0, 0, 1, 0}); got != 256 {
		t.Errorf("epoch = %d, want 256", got)
	}
	if got := helloEpoch([]byte{0xDE, 0xAD, 0xBE, 0xEF, 0x99}); got != 0xDEADBEEF {
		t.Errorf("epoch with trailing bytes = %#x", got)
	}
}

// The session table sheds joins beyond its cap instead of growing
// without bound, and frees capacity when sessions leave.
func TestSessionTableCap(t *testing.T) {
	tab := newSessionTable(2)
	now := time.Now()
	a, _ := tab.lookup(testAddr(9001), 1, now)
	b, _ := tab.lookup(testAddr(9002), 1, now)
	if a == nil || b == nil {
		t.Fatal("in-cap joins rejected")
	}
	if s, _ := tab.lookup(testAddr(9003), 1, now); s != nil {
		t.Fatal("join beyond cap admitted")
	}
	// An existing session is always found, even at the cap.
	if s, existed := tab.lookup(testAddr(9001), 1, now); s != a || !existed {
		t.Error("existing session not found at cap")
	}
	tab.remove(a)
	if s, _ := tab.lookup(testAddr(9003), 1, now); s == nil {
		t.Error("join rejected after capacity freed")
	}
}

// Several stations may watch one vehicle: a duplicate-sysid join from
// a second address fans out alongside the first instead of stealing
// the session, while the same (addr, sysid) pair maps to one session.
func TestDuplicateSysIDJoin(t *testing.T) {
	tab := newSessionTable(0)
	now := time.Now()
	a, _ := tab.lookup(testAddr(9001), 1, now)
	b, _ := tab.lookup(testAddr(9002), 1, now)
	if a == b {
		t.Fatal("distinct stations shared a session")
	}
	if got := len(tab.subscribers(1)); got != 2 {
		t.Fatalf("subscribers = %d, want 2", got)
	}
	if c, existed := tab.lookup(testAddr(9001), 1, now); c != a || !existed {
		t.Error("same (addr, sysid) did not map to the same session")
	}
}

// Expiry then re-hello: a session expired by a sweep is gone, and the
// peer's next datagram builds a fresh session, never a lookup on the
// expired one. The read loop runs both, one after the other, so this
// pins what the table does rather than a race between goroutines.
func TestSessionExpiryRehelloRace(t *testing.T) {
	tab := newSessionTable(0)
	start := time.Now()
	s, _ := tab.lookup(testAddr(9001), 1, start)
	s.rx.track(41, &s.stats)
	if n := tab.expire(start.Add(time.Second), 500*time.Millisecond); n != 1 {
		t.Fatalf("expire dropped %d sessions, want 1", n)
	}
	if got := tab.count(); got != 0 {
		t.Fatalf("count = %d after expiry", got)
	}
	// The re-hello arriving after the sweep builds a fresh session with
	// clean tracking.
	s2, existed := tab.lookup(testAddr(9001), 1, start.Add(time.Second))
	if existed {
		t.Fatal("expired session resurrected instead of recreated")
	}
	if s2 == s {
		t.Fatal("lookup returned the expired session object")
	}
	if s2.rx.init {
		t.Error("fresh session inherited rx tracking")
	}
}
