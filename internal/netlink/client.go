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

// maxUplinkQueue bounds the client's outgoing data queue: a wedged
// socket sheds the oldest frames instead of growing without bound.
const maxUplinkQueue = 256

// ClientConfig tunes a ground-station client.
type ClientConfig struct {
	// SysID is the vehicle to watch (1-based fleet system id).
	SysID byte
	// Keepalive is the hello interval maintaining the session (wall
	// clock; default 500ms).
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
// link-loss-tolerant mode) and transmits uplink frames through a
// bounded retry queue, including the paper's oversize attack frames.
type Client struct {
	cfg   ClientConfig
	conn  *net.UDPConn
	stats LinkStats

	mu          sync.Mutex
	mon         gcs.Monitor
	txSeq       uint32
	frameSeq    byte
	epoch       uint32
	outage      bool
	rx          rxSeq
	lastSim     time.Duration
	lastArrival time.Time

	up        chan []byte
	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// DialClient connects to a fleet server and starts the receive,
// keepalive and uplink loops. The session is established by the first
// hello; the server starts streaming that vehicle's telemetry on its
// next tick.
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
		up:   make(chan []byte, maxUplinkQueue),
		stop: make(chan struct{}),
	}
	c.mon.TolerateLinkLoss = true
	c.sendDatagram(PacketHello, c.helloPayload())

	c.wg.Add(3)
	go c.recvLoop()
	go c.keepaliveLoop()
	go c.uplinkLoop()
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

// SendFrame assigns the session's MAVLink sequence number and
// transmits the frame on the uplink. Oversize payloads are permitted —
// a malicious station does not respect the 255-byte limit (the frame
// is marshaled with MarshalOversize, exactly like the in-process
// gcs.GroundStation.SendFrame path).
func (c *Client) SendFrame(f *mavlink.Frame) {
	c.mu.Lock()
	f.Seq = c.frameSeq
	c.frameSeq++
	c.mu.Unlock()
	c.sendDatagram(PacketData, f.MarshalOversize())
}

// SendRaw transmits arbitrary uplink bytes (fuzzing, malformed
// traffic).
func (c *Client) SendRaw(payload []byte) {
	c.sendDatagram(PacketData, payload)
}

// sendDatagram numbers and encodes a datagram. Control datagrams
// (hello/bye) are written straight to the socket; data datagrams go
// through the bounded uplink queue, which drops the oldest entry under
// backpressure and retries transient write failures with backoff.
func (c *Client) sendDatagram(t PacketType, payload []byte) {
	c.mu.Lock()
	seq := c.txSeq
	c.txSeq++
	c.mu.Unlock()
	pkt := Encode(Header{Type: t, SysID: c.cfg.SysID, Seq: seq}, payload)
	if t != PacketData {
		c.write(pkt)
		return
	}
	for {
		select {
		case c.up <- pkt:
			return
		default:
		}
		select {
		case <-c.up:
			c.stats.QueueDropped.Add(1)
		default:
		}
	}
}

// write transmits one datagram, reporting success.
func (c *Client) write(pkt []byte) bool {
	if _, err := c.conn.Write(pkt); err != nil {
		return false
	}
	c.stats.DatagramsOut.Add(1)
	c.stats.BytesOut.Add(uint64(len(pkt)))
	return true
}

// uplinkLoop drains the data queue. A failed write retries a few times
// with doubling backoff (transient socket pressure), then the datagram
// is shed — UDP semantics, but without silently wedging the caller.
func (c *Client) uplinkLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.stop:
			return
		case pkt := <-c.up:
			backoff := 5 * time.Millisecond
			for attempt := 0; !c.write(pkt); attempt++ {
				if attempt >= 3 {
					c.stats.QueueDropped.Add(1)
					break
				}
				select {
				case <-c.stop:
					return
				case <-time.After(backoff):
				}
				backoff *= 2
			}
		}
	}
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
func (c *Client) Stats() LinkStatsSnapshot { return c.stats.Snapshot() }

// SimTime returns the vehicle sim clock carried by the latest
// datagram.
func (c *Client) SimTime() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastSim
}

// Close sends a graceful bye and stops the loops.
func (c *Client) Close() error {
	c.closeOnce.Do(func() {
		c.sendDatagram(PacketBye, nil)
		close(c.stop)
		_ = c.conn.Close()
		c.wg.Wait()
	})
	return nil
}

func (c *Client) recvLoop() {
	defer c.wg.Done()
	buf := make([]byte, 1<<16)
	for {
		select {
		case <-c.stop:
			return
		default:
		}
		_ = c.conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		n, err := c.conn.Read(buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				c.checkLinkIdle()
				continue
			}
			select {
			case <-c.stop:
				return
			default:
				continue
			}
		}
		h, payload, err := Decode(buf[:n])
		if err != nil {
			if errors.Is(err, ErrChecksum) {
				// Wire damage caught by the transport: the datagram is
				// lost whole, booked as degradation, and the stream stays
				// clean — no garbage ever reaches the monitor.
				c.stats.CorruptDatagrams.Add(1)
				c.mu.Lock()
				c.mon.NoteCorrupt()
				c.mu.Unlock()
			}
			continue
		}
		if h.SysID != c.cfg.SysID {
			continue
		}
		c.stats.DatagramsIn.Add(1)
		c.stats.BytesIn.Add(uint64(n))

		c.mu.Lock()
		c.rx.track(h.Seq, &c.stats)
		if h.SimTime > c.lastSim {
			c.lastSim = h.SimTime
		}
		c.lastArrival = time.Now()
		if c.outage {
			// Traffic resumed after a declared outage: charge the whole
			// span to the link and re-baseline vehicle silence before
			// feeding, so a healed partition never reads as a silent
			// vehicle.
			c.outage = false
			c.mon.NoteLinkOutage(c.lastSim)
		}
		// Feed at the datagram's own sim timestamp: gaps between
		// received sim clocks measure vehicle silence in simulated
		// time, immune to host scheduling.
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
	c.mon.FeedLinkIdle(c.lastSim + gap)
	rehello := !c.outage
	if rehello {
		c.outage = true
		c.epoch++
		c.stats.Rehellos.Add(1)
	}
	c.mu.Unlock()
	if rehello {
		c.sendDatagram(PacketHello, c.helloPayload())
	}
}

func (c *Client) keepaliveLoop() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.cfg.Keepalive)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			c.sendDatagram(PacketHello, c.helloPayload())
		}
	}
}
