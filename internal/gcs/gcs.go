// Package gcs simulates the ground station side of the MAVR scenario:
// a benign station that monitors the UAV's telemetry for signs of
// compromise, and a malicious station (the paper's Fig. 3 attack
// vector) that injects attack frames over the same link.
//
// Stealthiness in the paper means the ground station cannot tell an
// attack happened: telemetry keeps flowing, sequence numbers stay
// continuous, heartbeats validate and report an active vehicle, and no
// garbage appears on the link. The Monitor encodes exactly those
// checks.
package gcs

import (
	"time"

	"mavr/internal/board"
	"mavr/internal/mavlink"
)

// FeedStep is the board time a ground station lets pass between two
// drains of the downlink: Fly and ParamClient.Set step by it, and so do
// scenario.Run and every vehicle of a netlink.Fleet.
const FeedStep = 10 * time.Millisecond

// GroundStation drives one UAV over the telemetry link.
type GroundStation struct {
	Sys *board.System
	Mon Monitor
	seq byte
}

// NewGroundStation connects a station to a vehicle.
func NewGroundStation(sys *board.System) *GroundStation {
	return &GroundStation{Sys: sys}
}

// Step advances the simulation and ingests whatever telemetry arrived.
func (g *GroundStation) Step(d time.Duration) error {
	if err := g.Sys.Run(d); err != nil {
		return err
	}
	g.Mon.Feed(g.Sys.DrainGCS(), g.Sys.Now())
	return nil
}

// Fly advances the simulation in steps of FeedStep.
func (g *GroundStation) Fly(d time.Duration) error {
	for e := time.Duration(0); e < d; e += FeedStep {
		if err := g.Step(FeedStep); err != nil {
			return err
		}
	}
	return nil
}

// SendFrame transmits a MAVLink frame to the UAV (oversize frames
// permitted: a malicious or compromised station does not respect the
// 255-byte limit).
func (g *GroundStation) SendFrame(f *mavlink.Frame) {
	f.Seq = g.seq
	g.seq++
	g.Sys.SendToUAV(f.MarshalOversize())
}

// SetParam sends a legitimate PARAM_SET.
func (g *GroundStation) SetParam(name string, value float32) {
	ps := &mavlink.ParamSet{ParamID: name, ParamValue: value, TargetSystem: 1}
	g.SendFrame(&mavlink.Frame{MsgID: mavlink.MsgIDParamSet, SysID: 255, Payload: ps.Marshal()})
}
