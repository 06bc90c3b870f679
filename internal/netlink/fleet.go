// The fleet daemon bridges simulated time to real time: the pacer
// schedules simulation steps against the wall clock on purpose.
//mavr:wallclock

package netlink

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mavr/internal/board"
	"mavr/internal/chaos"
	"mavr/internal/firmware"
	"mavr/internal/gcs"
	"mavr/internal/metrics"
)

// FleetConfig sizes and shapes a Fleet.
type FleetConfig struct {
	// Vehicles is the number of hosted UAVs (1..250); they get system
	// ids 1..Vehicles.
	Vehicles int
	// Addr is the UDP listen address (default "127.0.0.1:0").
	Addr string
	// Firmware is the image every vehicle flies (default: the
	// vulnerable test application, MAVR build). The image is shared —
	// FlashFirmware does not mutate it.
	Firmware *firmware.Image
	// Protected boots MAVR boards (master + randomization) instead of
	// the paper's unprotected attack-target baseline.
	Protected bool
	// MasterSeed seeds the per-vehicle randomization (vehicle i adds i).
	MasterSeed int64
	// Provision, when set on a Protected fleet, provisions randomized
	// images from the fleet armory instead of randomizing on-board:
	// each master's re-randomizations call it with the vehicle's system
	// id and epoch (typically a closure over armory.Client.Randomize).
	// Errors degrade gracefully to on-board randomization, counted in
	// the fleet.armory_fallbacks metric.
	Provision func(sysID byte, epoch int) (*board.Provisioned, error)
	// Rate paces the simulation: simulated seconds per wall second.
	// 1 is real time; 0 or negative free-runs as fast as the host
	// allows (used by tests and load generation).
	Rate float64
	// Chaos injects the deterministic fault schedule: board panics,
	// hangs and clock stalls realized by the driver goroutines, link
	// partitions, datagram corruption, loss, duplication and delay
	// realized on the send/receive paths. The zero value injects
	// nothing.
	Chaos chaos.Config
	// RestartBudget caps consecutive supervised restarts per vehicle
	// before it is parked as degraded (default 8; negative disables
	// supervision — the first crash degrades the vehicle).
	RestartBudget int
	// SessionTimeout expires sessions with no uplink datagrams (wall
	// clock; default 5s).
	SessionTimeout time.Duration
}

const (
	// maxSessions caps the session table; joins beyond the cap are
	// rejected and counted.
	maxSessions = 1024
	// drainTimeout bounds Close: if the drivers and the read loop have
	// not drained by then, Close gives up and reports the leak instead
	// of hanging the caller.
	drainTimeout = 5 * time.Second
	// timeBeacon is the maximum simulated interval between downlink
	// datagrams per session: when a vehicle emits no telemetry for this
	// long (crashed application), an empty datagram still carries its
	// sim clock so ground stations can measure vehicle silence in
	// simulated time.
	timeBeacon = 50 * time.Millisecond
)

func (c FleetConfig) withDefaults() FleetConfig {
	if c.Vehicles <= 0 {
		c.Vehicles = 1
	}
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.RestartBudget == 0 {
		c.RestartBudget = 8
	}
	if c.SessionTimeout <= 0 {
		c.SessionTimeout = 5 * time.Second
	}
	return c
}

// VehicleSnapshot is a race-free view of a vehicle, refreshed by its
// driver goroutine once per tick. Each tagged field is one
// vehicle.<sysid>.<name> line of Fleet.MetricsText.
type VehicleSnapshot struct {
	SysID     byte
	SimTime   time.Duration `metric:"simtime_ms"`
	Ticks     uint64        `metric:"ticks"`
	Running   bool          `metric:"running"`
	GyroCfg   byte          `metric:"gyrocfg"`
	Reflashes int           `metric:"reflashes"`
	// Restarts counts supervised driver restarts after crashes.
	Restarts int `metric:"restarts"`
	// Degraded is set when the restart budget is exhausted: the
	// vehicle is parked and no longer simulated.
	Degraded bool `metric:"degraded"`
}

// Vehicle is one hosted UAV: a board.System plus its downlink
// packetization state and the two links its datagrams draw their
// faults on. The system must only be touched directly once the fleet
// is closed (the driver goroutine owns it while running); use Snapshot
// for live observation.
type Vehicle struct {
	SysID byte

	// sys is swapped by the supervisor when a crashed board is rebuilt,
	// so reads go through the pointer.
	sys atomic.Pointer[board.System]

	down, up   chaos.Link
	splitter   gcs.StreamSplitter
	lastBeacon time.Duration
	ticks      uint64

	// Chaos hold window: while ticks < holdUntil the board is hung or
	// stalled (holdKind) and no new fates are drawn. heldTicks feeds
	// the pacer, whose wall schedule must keep moving while the sim
	// clock is frozen.
	holdUntil uint64
	holdKind  chaos.BoardFaultKind
	holdStart uint64
	heldTicks uint64

	restarts atomic.Uint32
	degraded atomic.Bool
	snap     atomic.Value // VehicleSnapshot
	runErr   atomic.Value // error
}

// Sys returns the vehicle's current board. Only inspect it directly
// once the fleet is closed; the driver goroutine owns it while
// running, and the supervisor replaces it after a crash.
func (v *Vehicle) Sys() *board.System { return v.sys.Load() }

// Snapshot returns the vehicle's last published state.
func (v *Vehicle) Snapshot() VehicleSnapshot {
	s, _ := v.snap.Load().(VehicleSnapshot)
	return s
}

// Err returns the most recent simulation error or recovered panic that
// crashed the vehicle's driver, if any.
func (v *Vehicle) Err() error {
	err, _ := v.runErr.Load().(error)
	return err
}

// Restarts returns how many times the supervisor restarted the
// vehicle.
func (v *Vehicle) Restarts() int { return int(v.restarts.Load()) }

// Degraded reports whether the vehicle exhausted its restart budget
// and is parked.
func (v *Vehicle) Degraded() bool { return v.degraded.Load() }

func (v *Vehicle) publish() {
	sys := v.sys.Load()
	v.snap.Store(VehicleSnapshot{
		SysID:     v.SysID,
		SimTime:   sys.Now(),
		Ticks:     v.ticks,
		Running:   sys.App.Running(),
		GyroCfg:   sys.App.CPU.Data[firmware.AddrGyroCfg],
		Reflashes: len(sys.Reflashes()),
		Restarts:  int(v.restarts.Load()),
		Degraded:  v.degraded.Load(),
	})
}

// Fleet hosts N simulated UAVs behind one UDP socket: per-vehicle
// supervised driver goroutines advance the boards (restarting them
// after crashes), a read loop demultiplexes uplink datagrams into
// per-session state and vehicle uplinks, and downlink telemetry is
// packetized on record boundaries and fanned out to every subscribed
// session (through the chaos schedule).
type Fleet struct {
	cfg      FleetConfig
	img      *firmware.Image
	conn     *net.UDPConn
	send     *sender
	vehicles []*Vehicle
	sessions *sessionTable
	started  time.Time

	// mu guards stats, the fleet's counted fields (see Stats).
	mu    sync.Mutex
	stats FleetStats

	stop    chan struct{}
	wg      sync.WaitGroup
	closeMu sync.Mutex
	closed  bool
}

// NewFleet builds, flashes and boots the vehicles. Call Start to bind
// the socket and begin flying.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	cfg = cfg.withDefaults()
	if cfg.Vehicles > 250 {
		return nil, fmt.Errorf("netlink: %d vehicles exceed the 250 system ids", cfg.Vehicles)
	}
	img := cfg.Firmware
	if img == nil {
		var err error
		img, err = firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
		if err != nil {
			return nil, err
		}
	}
	f := &Fleet{
		cfg:      cfg,
		img:      img,
		sessions: newSessionTable(maxSessions),
		stop:     make(chan struct{}),
	}
	for i := 0; i < cfg.Vehicles; i++ {
		sys, err := f.newSystem(i)
		if err != nil {
			return nil, fmt.Errorf("vehicle %d: %w", i+1, err)
		}
		id := byte(i + 1)
		v := &Vehicle{
			SysID: id,
			down:  chaos.Link{Dir: chaos.Down, SysID: id, Name: fmt.Sprintf("v%d/down", id)},
			up:    chaos.Link{Dir: chaos.Up, SysID: id, Name: fmt.Sprintf("v%d/up", id)},
		}
		v.sys.Store(sys)
		v.publish()
		f.vehicles = append(f.vehicles, v)
	}
	return f, nil
}

// newSystem builds, flashes and boots one board — the factory both the
// initial fleet and the supervisor's crash recovery go through.
func (f *Fleet) newSystem(i int) (*board.System, error) {
	sysCfg := board.SystemConfig{Unprotected: true}
	if f.cfg.Protected {
		mc := board.MasterConfig{
			Seed:            f.cfg.MasterSeed + int64(i),
			WatchdogTimeout: 20 * time.Millisecond,
		}
		if f.cfg.Provision != nil {
			sysID := byte(i + 1)
			prov := f.cfg.Provision
			mc.Provision = func(epoch int) (*board.Provisioned, error) {
				p, err := prov(sysID, epoch)
				if err != nil || p == nil {
					f.count(func(s *FleetStats) { s.ArmoryFallbacks++ })
					return nil, err
				}
				f.count(func(s *FleetStats) { s.ArmoryProvisioned++ })
				return p, nil
			}
		}
		sysCfg = board.SystemConfig{Master: mc}
	}
	sys := board.NewSystem(sysCfg)
	if err := sys.FlashFirmware(f.img); err != nil {
		return nil, fmt.Errorf("flash: %w", err)
	}
	if _, err := sys.Boot(); err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	return sys, nil
}

// Start binds the UDP socket and launches the read loop (which also
// expires idle sessions), the delayed-datagram sender and one
// supervised driver goroutine per vehicle.
func (f *Fleet) Start() error {
	addr, err := net.ResolveUDPAddr("udp", f.cfg.Addr)
	if err != nil {
		return err
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return err
	}
	_ = conn.SetReadBuffer(1 << 20)
	_ = conn.SetWriteBuffer(1 << 20)
	f.conn = conn
	f.send = newSender(conn)
	f.started = time.Now()

	f.wg.Add(1)
	go f.readLoop()

	for _, v := range f.vehicles {
		f.wg.Add(1)
		go f.superviseVehicle(v)
	}
	return nil
}

// Addr returns the bound UDP address (valid after Start).
func (f *Fleet) Addr() *net.UDPAddr { return f.conn.LocalAddr().(*net.UDPAddr) }

// Vehicle returns the hosted vehicle with the given system id, or nil.
func (f *Fleet) Vehicle(sysID byte) *Vehicle {
	if sysID < 1 || int(sysID) > len(f.vehicles) {
		return nil
	}
	return f.vehicles[sysID-1]
}

// Vehicles returns all hosted vehicles.
func (f *Fleet) Vehicles() []*Vehicle { return f.vehicles }

// Stats returns the fleet-level counters.
func (f *Fleet) Stats() FleetStats {
	f.mu.Lock()
	st := f.stats
	f.mu.Unlock()
	st.Vehicles = len(f.vehicles)
	for _, v := range f.vehicles {
		st.Restarts += int(v.restarts.Load())
		if v.degraded.Load() {
			st.Degraded++
		}
	}
	st.Sessions = f.sessions.count()
	if !f.started.IsZero() { // an unstarted fleet has no uptime
		st.Uptime = time.Since(f.started)
	}
	return st
}

// count applies add to the fleet's counters under their lock.
func (f *Fleet) count(add func(*FleetStats)) {
	f.mu.Lock()
	add(&f.stats)
	f.mu.Unlock()
}

// Close stops all goroutines and releases the socket, waiting at most
// drainTimeout for the drain. After a clean Close, vehicle state
// (Vehicle.Sys) may be inspected directly and no fleet goroutines or
// sessions remain.
func (f *Fleet) Close() error {
	f.closeMu.Lock()
	defer f.closeMu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	close(f.stop)
	if f.conn != nil {
		f.conn.Close() // unblocks the read loop
	}
	done := make(chan struct{})
	go func() {
		f.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(drainTimeout):
		return fmt.Errorf("netlink: fleet drain exceeded %v", drainTimeout)
	}
	if f.send != nil {
		f.send.close()
	}
	f.sessions.clear()
	return nil
}

// superviseVehicle owns one vehicle's lifecycle: it runs the driver,
// recovers from crashes (chaos panics, simulation faults), rebuilds
// the board with the sim clock fast-forwarded so vehicle time stays
// monotonic, and parks the vehicle as degraded once the restart budget
// is spent. Restart delays back off exponentially with deterministic
// jitter from the chaos seed.
func (f *Fleet) superviseVehicle(v *Vehicle) {
	defer f.wg.Done()
	for {
		err := f.runVehicle(v)
		if err == nil {
			return // clean shutdown
		}
		v.runErr.Store(err)
		attempt := int(v.restarts.Load())
		if f.cfg.RestartBudget < 0 || attempt >= f.cfg.RestartBudget {
			v.degraded.Store(true)
			v.publish()
			return
		}
		v.restarts.Add(1)
		delay := chaos.Backoff(f.cfg.Chaos.Seed, uint64(v.SysID), attempt,
			10*time.Millisecond, time.Second)
		select {
		case <-f.stop:
			v.publish()
			return
		case <-time.After(delay):
		}
		if rerr := f.restartVehicle(v); rerr != nil {
			v.runErr.Store(rerr)
			v.degraded.Store(true)
			v.publish()
			return
		}
	}
}

// restartVehicle rebuilds a crashed vehicle's board from the shared
// firmware image: fresh flash, fresh boot, sim clock fast-forwarded to
// the predecessor's — the same semantics as the paper's master reflash
// recovery, where volatile state is lost but the mission clock is not.
func (f *Fleet) restartVehicle(v *Vehicle) error {
	old := v.sys.Load()
	sys, err := f.newSystem(int(v.SysID) - 1)
	if err != nil {
		return fmt.Errorf("vehicle %d: restart: %w", v.SysID, err)
	}
	sys.FastForward(old.Now())
	v.splitter = gcs.StreamSplitter{}
	v.sys.Store(sys)
	v.publish()
	return nil
}

// runVehicle advances one board at the configured rate, realizes the
// chaos schedule's board faults, packetizes the downlink on record
// boundaries and fans datagrams out to the vehicle's subscribers. It
// returns nil on fleet shutdown; a non-nil error (including recovered
// driver panics) hands the vehicle to the supervisor.
func (f *Fleet) runVehicle(v *Vehicle) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("vehicle %d: driver panic: %v", v.SysID, r)
		}
	}()
	sys := v.sys.Load()
	simStart := sys.Now()
	heldStart := v.heldTicks
	wallStart := time.Now()
	beaconEvery := uint64(timeBeacon / gcs.FeedStep)
	for {
		select {
		case <-f.stop:
			return nil
		default:
		}

		if f.cfg.Rate > 0 {
			// Sleep until the wall clock catches up with the sim clock.
			// Held (hung/stalled) ticks advance the wall schedule even
			// though the sim clock is frozen — a hung board still burns
			// real time.
			simElapsed := sys.Now() - simStart +
				time.Duration(v.heldTicks-heldStart)*gcs.FeedStep
			due := wallStart.Add(time.Duration(float64(simElapsed) / f.cfg.Rate))
			if d := time.Until(due); d > 0 {
				select {
				case <-f.stop:
					return nil
				case <-time.After(d):
				}
			}
		}

		if f.cfg.Chaos.BoardActive() && v.ticks >= v.holdUntil {
			switch fate := f.cfg.Chaos.BoardFate(v.SysID, v.ticks); fate.Kind {
			case chaos.FaultPanic:
				f.count(func(s *FleetStats) { s.ChaosBoardFaults++ })
				tick := v.ticks
				// Consume the crashing tick: the restarted driver resumes
				// past it instead of re-drawing the same fatal fate.
				v.ticks++
				v.heldTicks++
				panic(fmt.Sprintf("chaos: scheduled panic for vehicle %d at tick %d",
					v.SysID, tick))
			case chaos.FaultHang, chaos.FaultStall:
				f.count(func(s *FleetStats) { s.ChaosBoardFaults++ })
				v.holdKind = fate.Kind
				v.holdStart = v.ticks
				v.holdUntil = v.ticks + uint64(fate.Ticks)
			}
		}

		if v.ticks < v.holdUntil {
			// Hung or stalled: the sim clock is frozen. A hung board is
			// dark (no datagrams — from the ground it reads as a dead
			// link); a stalled board's radio keeps beaconing the frozen
			// clock — the wedged-autopilot signature.
			v.ticks++
			v.heldTicks++
			if v.holdKind == chaos.FaultStall &&
				(v.ticks-v.holdStart)%beaconEvery == 0 {
				now := sys.Now()
				for _, sess := range f.sessions.subscribers(v.SysID) {
					f.sendDownlink(v, sess, now, nil)
				}
				v.lastBeacon = now
			}
			v.publish()
			continue
		}

		if err := sys.Run(gcs.FeedStep); err != nil {
			v.publish()
			return fmt.Errorf("vehicle %d: %w", v.SysID, err)
		}
		v.ticks++
		now := sys.Now()

		records := v.splitter.Feed(sys.DrainGCS())
		subs := f.sessions.subscribers(v.SysID)
		if len(records) > 0 && len(subs) > 0 {
			payloads := packRecords(records, MaxDatagram-HeaderSize)
			for _, sess := range subs {
				sess.mu.Lock()
				sess.stats.RecordsOut += uint64(len(records))
				sess.mu.Unlock()
				for _, p := range payloads {
					f.sendDownlink(v, sess, now, p)
				}
			}
			v.lastBeacon = now
		} else if now-v.lastBeacon >= timeBeacon {
			// No telemetry: still carry the sim clock so ground stations
			// can tell vehicle silence from link loss.
			for _, sess := range subs {
				f.sendDownlink(v, sess, now, nil)
			}
			v.lastBeacon = now
		}
		v.publish()
	}
}

// packRecords greedily packs records into payloads no larger than
// limit, copying them out of the splitter's buffer. A single record
// larger than limit gets a payload of its own (UDP carries it; it just
// exceeds the preferred size).
func packRecords(records [][]byte, limit int) [][]byte {
	var payloads [][]byte
	var cur []byte
	for _, r := range records {
		if len(cur) > 0 && len(cur)+len(r) > limit {
			payloads = append(payloads, cur)
			cur = nil
		}
		cur = append(cur, r...)
	}
	if len(cur) > 0 {
		payloads = append(payloads, cur)
	}
	return payloads
}

// sendDownlink wraps one payload for one of v's sessions and transmits
// it as the chaos schedule decides.
func (f *Fleet) sendDownlink(v *Vehicle, sess *session, simNow time.Duration, payload []byte) {
	seq := sess.txSeq
	sess.txSeq++
	fate := f.cfg.Chaos.Fate(v.down, seq)
	if fate.Partitioned {
		f.count(func(s *FleetStats) { s.ChaosPartitioned++ })
		sess.mu.Lock()
		sess.stats.SimDropped++
		sess.mu.Unlock()
		return
	}
	pkt := Encode(Header{Type: PacketData, SysID: sess.sysID, Seq: seq, SimTime: simNow}, payload)
	if fate.Corrupted {
		// Flip a post-version byte so the damage is the checksum's to
		// catch (magic/version flips are rejected before verification).
		c := fate.Corruption
		pkt[3+int(c.Offset%uint64(len(pkt)-3))] ^= c.XOR
		f.count(func(s *FleetStats) { s.ChaosCorrupted++ })
	}
	sess.mu.Lock()
	if fate.Drop {
		sess.stats.SimDropped++
		sess.mu.Unlock()
		return
	}
	sess.stats.SimDuplicated += uint64(fate.Copies - 1)
	if fate.Delay > 0 {
		sess.stats.SimDelayed++
	}
	sess.stats.DatagramsOut += uint64(fate.Copies)
	sess.stats.BytesOut += uint64(fate.Copies * len(pkt))
	sess.mu.Unlock()
	var shed uint64
	for i := 0; i < fate.Copies; i++ {
		shed += f.send.send(sess.addr, pkt, fate.Delay)
	}
	if shed > 0 {
		f.count(func(s *FleetStats) { s.SendQueueDropped += shed })
	}
}

// readLoop demultiplexes uplink datagrams (session bookkeeping, link
// counters, and raw payload forwarding onto the vehicle's serial
// uplink) and expires idle sessions on the wall clock. Its read
// deadline is the next reap, so a socket with no traffic still reaps.
func (f *Fleet) readLoop() {
	defer f.wg.Done()
	buf := make([]byte, 1<<16)
	reapEvery := max(f.cfg.SessionTimeout/4, 10*time.Millisecond)
	nextReap := time.Now().Add(reapEvery)
	_ = f.conn.SetReadDeadline(nextReap)
	for {
		if now := time.Now(); !now.Before(nextReap) {
			if n := f.sessions.expire(now, f.cfg.SessionTimeout); n > 0 {
				f.count(func(s *FleetStats) { s.SessionsExpired += uint64(n) })
			}
			nextReap = now.Add(reapEvery)
			_ = f.conn.SetReadDeadline(nextReap)
		}
		n, addr, err := f.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-f.stop:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		h, payload, err := Decode(buf[:n])
		if err != nil || f.Vehicle(h.SysID) == nil {
			if errors.Is(err, ErrChecksum) {
				f.count(func(s *FleetStats) { s.CorruptDatagrams++ })
			}
			f.count(func(s *FleetStats) { s.BadDatagrams++ })
			continue
		}
		// Partitions and corruption strike before the datagram reaches
		// the session layer: a partitioned window swallows it whole, and
		// a corrupted one fails the receiver checksum (modeled
		// post-decode because demultiplexing needs the header). Loss
		// strikes data payloads only, below.
		fate := f.cfg.Chaos.Fate(f.vehicles[h.SysID-1].up, h.Seq)
		if fate.Partitioned {
			f.count(func(s *FleetStats) { s.ChaosPartitioned++ })
			continue
		}
		if fate.Corrupted {
			f.count(func(s *FleetStats) { s.ChaosCorrupted++; s.CorruptDatagrams++ })
			continue
		}
		now := time.Now()
		sess, existed := f.sessions.lookup(addr, h.SysID, now)
		if sess == nil { // table full
			f.count(func(s *FleetStats) { s.SessionsRejected++ })
			continue
		}
		sess.lastSeen = now
		if !existed && h.Type == PacketBye {
			f.sessions.remove(sess)
			continue
		}

		switch h.Type {
		case PacketBye:
			f.sessions.remove(sess)
		case PacketHello:
			// Session creation/refresh, plus epoch bookkeeping: a new
			// epoch means the peer rebuilt its side (restart or link
			// declared dead) and uplink numbering starts over.
			sess.rehello(helloEpoch(payload))
		case PacketData:
			forward := len(payload) > 0 && !fate.Drop
			sess.mu.Lock()
			sess.rx.track(h.Seq, &sess.stats)
			sess.stats.DatagramsIn++
			sess.stats.BytesIn += uint64(n)
			if forward {
				sess.parser.feed(payload, &sess.stats)
			} else if len(payload) > 0 {
				sess.stats.SimDropped++
			}
			sess.mu.Unlock()
			if forward {
				f.vehicles[h.SysID-1].Sys().SendToUAV(payload)
			}
		default:
			f.count(func(s *FleetStats) { s.BadDatagrams++ })
		}
	}
}

// MetricsText renders fleet, per-vehicle and per-link counters as a
// plain-text block (one "name value" pair per line, sorted), the
// format served by cmd/mavr-fleetd's -metrics endpoint.
func (f *Fleet) MetricsText() string {
	lines := metrics.Lines("fleet", f.Stats())
	for _, v := range f.vehicles {
		lines = append(lines, metrics.Lines("vehicle."+strconv.Itoa(int(v.SysID)), v.Snapshot())...)
	}
	for _, sess := range f.sessions.all() {
		lines = append(lines, metrics.Lines("link."+sess.key, sess.Stats())...)
	}
	return metrics.Text(lines)
}
