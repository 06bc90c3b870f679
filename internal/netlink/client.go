// Client-side read deadlines and link-idle detection are wall-clock
// operations against a real UDP socket.
//mavr:wallclock

package netlink

import (
	"errors"
	"net"
	"sync"
	"time"

	"mavr/internal/gcs"
	"mavr/internal/mavlink"
)

// ClientConfig tunes a ground-station client.
type ClientConfig struct {
	// SysID is the vehicle to watch (1-based fleet system id).
	SysID byte
	// Keepalive is the hello interval maintaining the session (wall
	// clock; default 500ms). The receive loop sends the hello on its
	// first wakeup after the interval has passed, and it wakes at least
	// every 50ms.
	Keepalive time.Duration
	// LinkIdle is the wall-clock arrival gap after which the client
	// declares the link dead: the silence is charged to the link (not
	// the vehicle) and the session is re-helloed under a new epoch when
	// traffic resumes. Default 250ms; negative disables outage
	// detection. Deliberately keyed on wall-clock arrivals, not the
	// carried sim clocks — a recovering vehicle's sim clock jumps while
	// beacons keep arriving, and that gap belongs to the vehicle.
	LinkIdle time.Duration
}

// Client is one ground station's view of one vehicle over UDP: it
// maintains the session (re-helloing with a fresh epoch after link
// outages), feeds received telemetry records to a gcs.Monitor (in
// link-loss-tolerant mode) and writes uplink frames, including the
// paper's oversize attack frames, on its caller's goroutine. Its one
// goroutine is the receive loop, which also sends the keepalives.
type Client struct {
	cfg  ClientConfig
	conn *net.UDPConn

	mu          sync.Mutex
	stats       LinkStatsSnapshot
	mon         gcs.Monitor
	txSeq       uint32
	frameSeq    byte
	epoch       uint32
	rx          rxSeq
	lastSim     time.Duration
	lastArrival time.Time

	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// DialClient connects to a fleet server, sends the first hello and
// starts the receive loop. The session is established by that hello;
// the server starts streaming that vehicle's telemetry on its next
// tick.
func DialClient(addr string, cfg ClientConfig) (*Client, error) {
	if cfg.SysID == 0 {
		cfg.SysID = 1
	}
	if cfg.Keepalive <= 0 {
		cfg.Keepalive = 500 * time.Millisecond
	}
	if cfg.LinkIdle == 0 {
		cfg.LinkIdle = 250 * time.Millisecond
	}
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, err
	}
	_ = conn.SetReadBuffer(1 << 20)
	c := &Client{
		cfg:  cfg,
		conn: conn,
		stop: make(chan struct{}),
	}
	c.mon.TolerateLinkLoss = true
	c.sendDatagram(PacketHello, c.helloPayload())

	c.wg.Add(1)
	go c.recvLoop()
	return c, nil
}

// helloPayload carries the session epoch (4 bytes big endian): the
// server resets its uplink tracking whenever the epoch changes.
func (c *Client) helloPayload() []byte {
	c.mu.Lock()
	e := c.epoch
	c.mu.Unlock()
	return []byte{byte(e >> 24), byte(e >> 16), byte(e >> 8), byte(e)}
}

// SendFrame assigns the session's MAVLink sequence number and writes
// the frame on the uplink from the caller's goroutine. Oversize
// payloads are permitted — a malicious station does not respect the
// 255-byte limit (the frame is marshaled with MarshalOversize, exactly
// like the in-process gcs.GroundStation.SendFrame path).
func (c *Client) SendFrame(f *mavlink.Frame) {
	c.mu.Lock()
	f.Seq = c.frameSeq
	c.frameSeq++
	c.mu.Unlock()
	c.sendDatagram(PacketData, f.MarshalOversize())
}

// sendDatagram numbers, encodes and writes one datagram on its
// caller's goroutine, whatever its type. A data datagram the socket
// refuses is lost, as it would be on the wire, and counted in
// QueueDropped; a refused hello or bye is not counted.
func (c *Client) sendDatagram(t PacketType, payload []byte) {
	c.mu.Lock()
	seq := c.txSeq
	c.txSeq++
	c.mu.Unlock()
	pkt := Encode(Header{Type: t, SysID: c.cfg.SysID, Seq: seq}, payload)
	_, err := c.conn.Write(pkt)
	c.mu.Lock()
	if err == nil {
		c.stats.DatagramsOut++
		c.stats.BytesOut += uint64(len(pkt))
	} else if t == PacketData {
		c.stats.QueueDropped++
	}
	c.mu.Unlock()
}

// Monitor returns a copy of the ground-station monitor state.
func (c *Client) Monitor() gcs.Monitor {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mon
}

// Health grades the link/vehicle state from the monitor's history.
func (c *Client) Health(silenceThreshold time.Duration) gcs.Health {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mon.Classify(silenceThreshold)
}

// Epoch returns the current session epoch (bumped per detected link
// outage).
func (c *Client) Epoch() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Stats returns the client-side link counters.
func (c *Client) Stats() LinkStatsSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// SimTime returns the vehicle sim clock carried by the latest
// datagram.
func (c *Client) SimTime() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastSim
}

// Close sends a graceful bye, closes the socket and waits for the
// receive loop to return.
func (c *Client) Close() error {
	c.closeOnce.Do(func() {
		c.sendDatagram(PacketBye, nil)
		close(c.stop)
		_ = c.conn.Close()
		c.wg.Wait()
	})
	return nil
}

// recvLoop is the client's one goroutine. It feeds received datagrams
// to the monitor and wakes at least every 50ms, on its read deadline;
// on every wakeup it sends the keepalive hello once Keepalive has
// passed since the last one, and on a timeout it checks the link for
// idleness.
func (c *Client) recvLoop() {
	defer c.wg.Done()
	buf := make([]byte, 1<<16)
	lastHello := time.Now() // DialClient sent the first
	for {
		select {
		case <-c.stop:
			return
		default:
		}
		now := time.Now()
		if now.Sub(lastHello) >= c.cfg.Keepalive {
			c.sendDatagram(PacketHello, c.helloPayload())
			lastHello = now
		}
		_ = c.conn.SetReadDeadline(now.Add(50 * time.Millisecond))
		n, err := c.conn.Read(buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				c.checkLinkIdle()
			}
			continue // a closed socket returns at the stop check
		}
		h, payload, err := Decode(buf[:n])
		if err != nil {
			if errors.Is(err, ErrChecksum) {
				// Wire damage caught by the transport: the datagram is
				// lost whole, booked as degradation, and the stream stays
				// clean — no garbage ever reaches the monitor.
				c.mu.Lock()
				c.stats.CorruptDatagrams++
				c.mon.NoteCorrupt()
				c.mu.Unlock()
			}
			continue
		}
		if h.SysID != c.cfg.SysID {
			continue
		}

		c.mu.Lock()
		c.stats.DatagramsIn++
		c.stats.BytesIn += uint64(n)
		c.rx.track(h.Seq, &c.stats)
		if h.SimTime > c.lastSim {
			c.lastSim = h.SimTime
		}
		c.lastArrival = time.Now()
		// Feed at the datagram's own sim timestamp: gaps between
		// received sim clocks measure vehicle silence in simulated
		// time, immune to host scheduling. After a declared outage this
		// Feed books the whole span against the link, so a healed
		// partition never reads as a silent vehicle.
		c.mon.Feed(payload, c.lastSim)
		c.mu.Unlock()
	}
}

// checkLinkIdle runs on receive timeouts: once the wall-clock arrival
// gap exceeds LinkIdle the link is declared dead — MaxLinkSilence
// tracks the outage live (its wall-clock gap read as sim time), the
// epoch is bumped and a re-hello goes out so the server rebuilds the
// session when the link heals.
func (c *Client) checkLinkIdle() {
	if c.cfg.LinkIdle <= 0 {
		return
	}
	c.mu.Lock()
	if c.lastArrival.IsZero() {
		c.mu.Unlock()
		return
	}
	gap := time.Since(c.lastArrival)
	if gap <= c.cfg.LinkIdle {
		c.mu.Unlock()
		return
	}
	rehello := !c.mon.LinkDown()
	c.mon.FeedLinkIdle(c.lastSim + gap)
	if rehello {
		c.epoch++
		c.stats.Rehellos++
	}
	c.mu.Unlock()
	if rehello {
		c.sendDatagram(PacketHello, c.helloPayload())
	}
}
