package netlink

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mavr/internal/mavlink"
)

// session is one ground station's subscription to one vehicle, keyed
// by peer address + system id (the same station may watch several
// vehicles over one socket, and several stations may watch one
// vehicle).
type session struct {
	key   string
	addr  *net.UDPAddr
	sysID byte
	stats LinkStats

	// lastSeen is the wall time of the last datagram from the peer
	// (heartbeat-based liveness).
	lastSeen atomic.Int64

	// txSeq is the downlink sequence number; only the owning vehicle's
	// goroutine sends, so no further synchronization is needed.
	txSeq uint32

	// epoch is the session generation announced by the peer's hello
	// payload. A hello with a different epoch is a re-hello: the peer
	// restarted or declared the link dead and is rebuilding its side of
	// the session, so stale uplink sequence tracking must not charge the
	// new stream with phantom gaps. Written only by the read loop;
	// atomic so observers (tests, metrics) may read concurrently.
	epoch    atomic.Uint32
	epochSet atomic.Bool

	// Uplink sequence tracking, touched only by the read loop.
	rx     rxSeq
	parser uplinkParser
}

func (s *session) touch(now time.Time) { s.lastSeen.Store(now.UnixNano()) }

func (s *session) idleSince(now time.Time) time.Duration {
	return now.Sub(time.Unix(0, s.lastSeen.Load()))
}

// rehello applies a hello's epoch. Any change — including wraparound
// back through zero — resets uplink sequence tracking and the parser,
// because an epoch change means the peer's numbering restarted. It
// reports whether this hello started a new epoch on an existing
// session.
func (s *session) rehello(epoch uint32) bool {
	if s.epochSet.Load() && s.epoch.Load() == epoch {
		return false
	}
	first := !s.epochSet.Load()
	s.epoch.Store(epoch)
	s.epochSet.Store(true)
	s.rx = rxSeq{}
	s.parser = uplinkParser{}
	if first {
		return false
	}
	s.stats.Rehellos.Add(1)
	return true
}

// helloEpoch extracts the 4-byte big-endian epoch from a hello
// payload. Legacy hellos with no payload report epoch 0.
func helloEpoch(payload []byte) uint32 {
	if len(payload) < 4 {
		return 0
	}
	return uint32(payload[0])<<24 | uint32(payload[1])<<16 |
		uint32(payload[2])<<8 | uint32(payload[3])
}

// rxSeq is one link direction's receive-sequence accounting, shared by
// the fleet's sessions (uplink) and the client (downlink). It is not
// synchronized: each owner serializes its calls.
type rxSeq struct {
	init bool
	next uint32 // the sequence number expected next
	// missing marks the skipped numbers behind next: bit i is set while
	// next-1-i was booked as a gap and has not arrived.
	missing uint64
}

// track accounts one received datagram's sequence number into st: the
// numbers skipped since the last in-order one count as gaps, and an
// older number counts as reordered. A late arrival still marked
// missing (within 64 of next) takes its gap back, so jitter alone
// books no gaps.
func (t *rxSeq) track(seq uint32, st *LinkStats) {
	if !t.init {
		t.init = true
		t.next = seq + 1
		return
	}
	switch {
	case seq == t.next:
		t.next++
		t.missing <<= 1
	case seq > t.next:
		skipped := seq - t.next
		st.SeqGaps.Add(uint64(skipped))
		// Move the window past seq (a shift of 64 or more empties it),
		// then mark the skipped numbers: bits 1..skipped, since bit 0
		// is seq itself, which arrived.
		t.missing <<= uint64(skipped) + 1
		t.missing |= ^uint64(0) >> (64 - min(skipped, 63)) << 1
		t.next = seq + 1
	default:
		st.Reordered.Add(1)
		if back := t.next - 1 - seq; back < 64 && t.missing&(1<<back) != 0 {
			t.missing &^= 1 << back
			st.SeqGaps.Add(^uint64(0)) // un-book its gap
		}
	}
}

// sessionTable is the fleet's live-session registry.
type sessionTable struct {
	mu       sync.RWMutex
	byKey    map[string]*session
	bySysID  map[byte][]*session
	max      int // 0 = unbounded
	expired  atomic.Uint64
	rejected atomic.Uint64
}

func newSessionTable(max int) *sessionTable {
	return &sessionTable{
		byKey:   make(map[string]*session),
		bySysID: make(map[byte][]*session),
		max:     max,
	}
}

func sessionKey(addr *net.UDPAddr, sysID byte) string {
	return fmt.Sprintf("%s|%d", addr, sysID)
}

// uplinkParser runs received uplink bytes through a lenient MAVLink
// parser purely for the per-link counters; forwarding to the vehicle
// is unconditional.
type uplinkParser struct {
	p mavlink.Parser
}

func (u *uplinkParser) feed(data []byte, st *LinkStats) {
	before := u.p.Stats()
	u.p.FeedBytes(data)
	after := u.p.Stats()
	st.UplinkFrames.Add(uint64(after.Frames - before.Frames))
	st.CRCRejects.Add(uint64(after.CRCErrors - before.CRCErrors))
}

// lookup returns the session for (addr, sysID), creating it if new.
// The bool reports whether the session already existed. When the table
// is at its cap, new joins are rejected (nil, false) — session-table
// pressure from churning stations must not grow memory without bound.
func (t *sessionTable) lookup(addr *net.UDPAddr, sysID byte, now time.Time) (*session, bool) {
	key := sessionKey(addr, sysID)
	t.mu.RLock()
	s := t.byKey[key]
	t.mu.RUnlock()
	if s != nil {
		return s, true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s = t.byKey[key]; s != nil {
		return s, true
	}
	if t.max > 0 && len(t.byKey) >= t.max {
		t.rejected.Add(1)
		return nil, false
	}
	// Copy the address: the read loop's UDPAddr may be reused.
	a := *addr
	s = &session{key: key, addr: &a, sysID: sysID}
	s.touch(now)
	t.byKey[key] = s
	t.bySysID[sysID] = append(t.bySysID[sysID], s)
	return s, false
}

// subscribers returns the sessions watching a vehicle.
func (t *sessionTable) subscribers(sysID byte) []*session {
	t.mu.RLock()
	subs := t.bySysID[sysID]
	out := make([]*session, len(subs))
	copy(out, subs)
	t.mu.RUnlock()
	return out
}

// remove deletes a session (graceful bye).
func (t *sessionTable) remove(s *session) {
	t.mu.Lock()
	t.removeLocked(s)
	t.mu.Unlock()
}

func (t *sessionTable) removeLocked(s *session) {
	if t.byKey[s.key] != s {
		return
	}
	delete(t.byKey, s.key)
	subs := t.bySysID[s.sysID]
	for i, other := range subs {
		if other == s {
			t.bySysID[s.sysID] = append(subs[:i], subs[i+1:]...)
			break
		}
	}
}

// expire removes sessions idle longer than timeout and returns how
// many were dropped.
func (t *sessionTable) expire(now time.Time, timeout time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var dead []*session
	for _, s := range t.allLocked() {
		if s.idleSince(now) > timeout {
			dead = append(dead, s)
		}
	}
	for _, s := range dead {
		t.removeLocked(s)
	}
	t.expired.Add(uint64(len(dead)))
	return len(dead)
}

// clear drops every session (fleet shutdown drain).
func (t *sessionTable) clear() {
	t.mu.Lock()
	t.byKey = make(map[string]*session)
	t.bySysID = make(map[byte][]*session)
	t.mu.Unlock()
}

// count returns the number of live sessions.
func (t *sessionTable) count() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.byKey)
}

// all returns every live session in key order, so callers walking the
// table (expiry sweeps, stats dumps) behave identically run to run.
func (t *sessionTable) all() []*session {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.allLocked()
}

func (t *sessionTable) allLocked() []*session {
	keys := make([]string, 0, len(t.byKey))
	for k := range t.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*session, 0, len(keys))
	for _, k := range keys {
		out = append(out, t.byKey[k])
	}
	return out
}
