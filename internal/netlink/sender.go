// Datagram pacing runs against the real clock by design: injected
// latency is realized as wall-clock sleeps on the socket goroutine.
//mavr:wallclock

package netlink

import (
	"container/heap"
	"net"
	"sync"
	"time"
)

// maxSenderQueue bounds the delayed-datagram queue. A pathological
// latency schedule (or a stalled socket) must degrade into datagram
// loss — UDP's native failure mode — rather than unbounded memory
// growth; the oldest queued datagram is shed first, matching what a
// saturated radio would do.
const maxSenderQueue = 4096

// sender serializes datagram writes onto one UDP socket and realizes
// the fault schedule's injected latency: delayed datagrams sit in a
// time-ordered queue drained by a single goroutine, so two datagrams
// whose injected delays invert genuinely arrive reordered on the wire.
// Zero-delay datagrams bypass the queue.
type sender struct {
	conn *net.UDPConn

	mu     sync.Mutex
	queue  delayHeap
	wake   chan struct{}
	done   chan struct{}
	closed bool
	wg     sync.WaitGroup
}

type delayed struct {
	due  time.Time
	addr *net.UDPAddr
	pkt  []byte
}

func newSender(conn *net.UDPConn) *sender {
	s := &sender{
		conn: conn,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	s.wg.Add(1)
	go s.loop()
	return s
}

// send transmits pkt to addr after delay and returns how many queued
// datagrams the queue bound shed to make room. The packet buffer must
// not be reused by the caller. Errors are dropped: UDP gives no
// delivery guarantee anyway and the fleet must not die with a session.
func (s *sender) send(addr *net.UDPAddr, pkt []byte, delay time.Duration) (shed uint64) {
	if delay <= 0 {
		_, _ = s.conn.WriteToUDP(pkt, addr)
		return 0
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0
	}
	for len(s.queue) >= maxSenderQueue {
		// Shed the earliest-due (oldest) datagram: stale telemetry is
		// the least valuable thing in a congested queue.
		heap.Pop(&s.queue)
		shed++
	}
	heap.Push(&s.queue, delayed{due: time.Now().Add(delay), addr: addr, pkt: pkt})
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return shed
}

func (s *sender) loop() {
	defer s.wg.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		s.mu.Lock()
		var wait time.Duration = time.Hour
		now := time.Now()
		for len(s.queue) > 0 {
			next := s.queue[0]
			if d := next.due.Sub(now); d > 0 {
				wait = d
				break
			}
			heap.Pop(&s.queue)
			s.mu.Unlock()
			_, _ = s.conn.WriteToUDP(next.pkt, next.addr)
			s.mu.Lock()
			now = time.Now()
		}
		s.mu.Unlock()

		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-s.done:
			return
		case <-s.wake:
		case <-timer.C:
		}
	}
}

// close stops the drain goroutine; queued datagrams are discarded.
func (s *sender) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	s.wg.Wait()
}

type delayHeap []delayed

func (h delayHeap) Len() int           { return len(h) }
func (h delayHeap) Less(i, j int) bool { return h[i].due.Before(h[j].due) }
func (h delayHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *delayHeap) Push(x any)        { *h = append(*h, x.(delayed)) }
func (h *delayHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
