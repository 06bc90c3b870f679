package main

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"mavr/internal/firmware"
	"mavr/internal/mavlink"
	"mavr/internal/netlink"
)

const (
	// roundTripLimit is the slowest PARAM_SET round trip that counts as
	// served; a slower one is a failed operation.
	roundTripLimit = time.Second
	// echoPoll is how often a client looks for the echo.
	echoPoll = 100 * time.Microsecond
	// codecReps is how many encode+decode pairs one netlink.codec span
	// times; a single pair is too short to time alone.
	codecReps = 100
)

// linkInst is the fleet-link workload: a free-running fleet of two MAVR
// vehicles on UDP loopback and one ground-station client per vehicle,
// each sending PARAM_SET in a closed loop and waiting for its echo.
type linkInst struct {
	fleet   *netlink.Fleet
	clients []*netlink.Client

	startOnce sync.Once
	start     time.Time
	sim0      []time.Duration
	stats0    []netlink.LinkStatsSnapshot
	speedup   float64
}

func setupLink(seed int64) (instance, error) {
	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		return nil, err
	}
	f, err := netlink.NewFleet(netlink.FleetConfig{Vehicles: 2, Firmware: img, Protected: true, MasterSeed: seed})
	if err != nil {
		return nil, err
	}
	if err := f.Start(); err != nil {
		f.Close()
		return nil, err
	}
	l := &linkInst{fleet: f}
	for i := range f.Vehicles() {
		c, err := netlink.DialClient(f.Addr().String(), netlink.ClientConfig{SysID: byte(i + 1)})
		if err != nil {
			l.close()
			return nil, err
		}
		l.clients = append(l.clients, c)
	}
	// Warm up: one round trip per client once telemetry flows.
	for c := range l.clients {
		if err := l.roundTrip(c, -1); err != nil {
			l.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return l, nil
}

// paramSet is item k's uplink frame for vehicle sysID.
func paramSet(sysID byte, k int) *mavlink.Frame {
	ps := &mavlink.ParamSet{ParamID: "RATE_RLL_P", ParamValue: float32(k), TargetSystem: sysID}
	return &mavlink.Frame{MsgID: mavlink.MsgIDParamSet, SysID: 255, Payload: ps.Marshal()}
}

// roundTrip sends one PARAM_SET from client c and waits until that
// client's monitor has counted one more echo.
func (l *linkInst) roundTrip(c, k int) error {
	cl := l.clients[c]
	before := cl.Monitor().ParamEchoes
	cl.SendFrame(paramSet(byte(c+1), k))
	deadline := time.Now().Add(roundTripLimit)
	for cl.Monitor().ParamEchoes <= before {
		if time.Now().After(deadline) {
			return fmt.Errorf("vehicle %d: no PARAM_SET echo within %v", c+1, roundTripLimit)
		}
		time.Sleep(echoPoll)
	}
	return nil
}

func (l *linkInst) item(c, k, id int, tr *tracer, root int) (func() error, error) {
	l.startOnce.Do(func() {
		l.start = time.Now()
		for _, cl := range l.clients {
			l.sim0 = append(l.sim0, cl.SimTime())
			l.stats0 = append(l.stats0, cl.Stats())
		}
	})
	if err := l.roundTrip(c, k); err != nil {
		return nil, err
	}
	if tr == nil {
		return nil, nil
	}
	return func() error {
		p := tr.begin(probeRoot, id, 0)
		defer tr.end(p)
		return codec(tr, id, p, paramSet(byte(c+1), k).MarshalOversize())
	}, nil
}

// codec times codecReps netlink encode+decode pairs of payload.
func codec(tr *tracer, id, parent int, payload []byte) error {
	return tr.do("netlink.codec", id, parent, func() error {
		for i := 0; i < codecReps; i++ {
			pkt := netlink.Encode(netlink.Header{Type: netlink.PacketData, SysID: 1, Seq: uint32(i)}, payload)
			if _, _, err := netlink.Decode(pkt); err != nil {
				return err
			}
		}
		return nil
	})
}

// finish checks that every vehicle flew the whole run without a crash
// or restart, and measures simulated seconds per host second.
func (l *linkInst) finish(tr *tracer) []error {
	var errs []error
	for _, v := range l.fleet.Vehicles() {
		s := v.Snapshot()
		if v.Err() != nil || s.Restarts != 0 || s.Degraded || !s.Running {
			errs = append(errs, fmt.Errorf("vehicle %d: running=%v restarts=%d degraded=%v err=%v", s.SysID, s.Running, s.Restarts, s.Degraded, v.Err()))
		}
	}
	if l.start.IsZero() {
		return append(errs, errors.New("no round trip ran"))
	}
	wall := time.Since(l.start)
	var sim time.Duration
	for i, cl := range l.clients {
		adv := cl.SimTime() - l.sim0[i]
		sim += adv
		st, st0 := cl.Stats(), l.stats0[i]
		tr.add("netlink.sim_ns", float64(adv))
		tr.add("netlink.datagrams_in", float64(st.DatagramsIn-st0.DatagramsIn))
		tr.add("netlink.bytes_in", float64(st.BytesIn-st0.BytesIn))
		tr.add("netlink.seq_gaps", float64(st.SeqGaps-st0.SeqGaps))
		tr.add("netlink.queue_dropped", float64(st.QueueDropped-st0.QueueDropped))
		tr.add("netlink.crc_rejects", float64(st.CRCRejects-st0.CRCRejects))
		tr.add("netlink.rehellos", float64(st.Rehellos-st0.Rehellos))
	}
	tr.add("speed.sim_ns", float64(sim))
	tr.add("speed.host_ns", float64(wall*time.Duration(len(l.clients))))
	l.speedup = sim.Seconds() / float64(len(l.clients)) / wall.Seconds()
	return errs
}

func (l *linkInst) extraLines() []string {
	return []string{line("fleet-link", "sim_speedup", l.speedup, "sim_s/s")}
}

func (l *linkInst) close() {
	for _, c := range l.clients {
		c.Close()
	}
	if err := l.fleet.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "mavrbench: fleet-link:", err)
	}
}
