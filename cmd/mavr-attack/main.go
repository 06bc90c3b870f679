// mavr-attack runs one of the paper's attack generations against a
// simulated board and reports the outcome as seen by the board and the
// ground station. The attack is one scenario.Spec: in process,
// scenario.Run flies it; with -connect, its packets (scenario.Packets)
// ride a real UDP uplink.
//
// Usage:
//
//	mavr-attack [-v 1|2|3] [-protect] [-value 0x7F]
//	mavr-attack -connect host:port [-sysid 1]   # inject over a mavr-fleetd socket
//
// V1 and V2 write the gyro configuration byte. V3 stages its chain in
// free SRAM and performs four writes from 0x1800: four writes from the
// gyro byte would run over the pulse sequence counter and give the
// attack away.
//
// With -connect the attack rides a real UDP uplink to a running
// mavr-fleetd vehicle instead of an in-process board; the outcome is
// reported from the attacker's own ground-station view (fleetd's
// -metrics endpoint has the vehicle.N.gyrocfg ground truth of V1 and
// V2).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mavr/internal/attack"
	"mavr/internal/firmware"
	"mavr/internal/netlink"
	"mavr/internal/scenario"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// attacks maps -v to the injection it sends 100ms into the flight.
var attacks = map[int]scenario.Injection{
	1: {Kind: scenario.InjectV1},
	2: {Kind: scenario.InjectV2},
	3: {Kind: scenario.InjectV3, Addr: 0x1800, StageWrites: 4, Spacing: 60 * time.Millisecond},
}

func run() error {
	version := flag.Int("v", 2, "attack generation: 1 (basic), 2 (stealthy), 3 (trampoline)")
	protect := flag.Bool("protect", false, "attack a MAVR-protected board instead of a plain APM")
	value := flag.Int("value", 0x7F, "byte to write: the gyro configuration (-v 1, 2) or the first at 0x1800 (-v 3)")
	trace := flag.Bool("trace", false, "print the Fig. 6 stack progression of the V2 chain")
	connect := flag.String("connect", "", "inject over a mavr-fleetd UDP socket at host:port instead of in-process")
	sysid := flag.Int("sysid", 1, "target vehicle system id (with -connect)")
	flag.Parse()

	inj, ok := attacks[*version]
	if !ok {
		return fmt.Errorf("unknown attack version %d", *version)
	}
	inj.At, inj.Value = 100*time.Millisecond, byte(*value)
	spec := scenario.Spec{Name: fmt.Sprintf("mavr-attack-v%d", *version), Board: scenario.BoardUnprotected,
		Injections: []scenario.Injection{inj}}
	if *protect {
		spec.Board, spec.Seed, spec.WatchdogTimeout = scenario.BoardMAVR, 7, 20*time.Millisecond
	}
	pkts, err := scenario.Packets(spec)
	if err != nil {
		return err
	}

	if *trace {
		img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
		if err != nil {
			return err
		}
		a, err := attack.Analyze(img.ELF)
		if err != nil {
			return err
		}
		snaps, err := attack.TraceV2(a, img.Flash, attack.GyroCfgWrite(byte(*value)))
		if err != nil {
			return err
		}
		fmt.Println("stack progression (paper Fig. 6):")
		for _, s := range snaps {
			fmt.Println(s)
		}
	}

	if *connect != "" {
		return overSocket(*connect, byte(*sysid), *version, inj, pkts)
	}

	// Fly 60ms past the last packet, then 3s more.
	spec.Run = pkts[len(pkts)-1].At + 60*time.Millisecond + 3*time.Second
	fmt.Printf("attacking with V%d (%d packet(s), %d payload bytes total)\n",
		*version, len(pkts), totalLen(pkts))
	res, err := scenario.Run(spec)
	if err != nil {
		return err
	}
	v := res.Verdict
	target, addr := "gyro-config", uint16(firmware.AddrGyroCfg)
	if inj.Addr != 0 {
		target, addr = fmt.Sprintf("data[0x%04X]", inj.Addr), inj.Addr
	}
	fmt.Printf("result: %s=0x%02X (wanted 0x%02X) — attack %s\n",
		target, res.Sys.App.CPU.Data[addr], *value, map[bool]string{true: "SUCCEEDED", false: "FAILED"}[v.AttackLanded])
	fmt.Printf("board fault: %v\n", res.Sys.LastFault())
	fmt.Printf("GCS view: pulses=%d gaps=%d garbage=%d max-silence=%v detected=%v\n",
		res.Mon.Pulses, res.Mon.SeqGaps, res.Mon.Garbage, res.Mon.MaxSilence.Round(time.Millisecond), v.Compromised)
	if *protect {
		fmt.Printf("master: failures detected=%d, randomizations=%d\n", v.FailuresDetected, v.Final.Epoch)
	}
	return nil
}

// overSocket delivers the attack packets through a mavr-fleetd UDP
// session and reports what a ground station sharing that socket would
// see. The fleet paces its own simulation, so cruise phases are waited
// out on the vehicle's sim clock as carried by received datagrams.
func overSocket(addr string, sysid byte, version int, inj scenario.Injection, pkts []scenario.Packet) error {
	c, err := netlink.DialClient(addr, netlink.ClientConfig{SysID: sysid})
	if err != nil {
		return err
	}
	defer c.Close()

	waitSim := func(d time.Duration) error {
		target := c.SimTime() + d
		deadline := time.Now().Add(30*time.Second + 2*d)
		for c.SimTime() < target {
			if time.Now().After(deadline) {
				return fmt.Errorf("vehicle %d sim clock stalled at %v (fleet down or wrong sysid?)", sysid, c.SimTime())
			}
			time.Sleep(20 * time.Millisecond)
		}
		return nil
	}

	// Observe established cruise before injecting.
	if err := waitSim(200 * time.Millisecond); err != nil {
		return err
	}
	fmt.Printf("attacking vehicle %d at %s with V%d (%d packet(s), %d payload bytes total)\n",
		sysid, addr, version, len(pkts), totalLen(pkts))
	for _, p := range pkts {
		c.SendFrame(attack.Frame(p.Payload))
		if err := waitSim(60 * time.Millisecond); err != nil {
			return err
		}
	}
	if err := waitSim(time.Second); err != nil {
		return err
	}

	mon := c.Monitor()
	st := c.Stats()
	fmt.Printf("link: %d datagrams out, %d in, %d seq gaps\n",
		st.DatagramsOut, st.DatagramsIn, st.SeqGaps)
	fmt.Printf("GCS view: pulses=%d gaps=%d/%d(link) garbage=%d last-gyro=%d max-silence=%v detected=%v\n",
		mon.Pulses, mon.SeqGaps, mon.LinkGaps, mon.Garbage, mon.LastGyro,
		mon.MaxSilence.Round(time.Millisecond), mon.CompromiseDetected(200*time.Millisecond))
	if inj.Addr == 0 { // fleetd exports the gyro byte, not V3's SRAM
		fmt.Printf("ground truth: check vehicle.%d.gyrocfg on fleetd's -metrics endpoint (wanted %d)\n",
			sysid, inj.Value)
	}
	return nil
}

func totalLen(pkts []scenario.Packet) int {
	n := 0
	for _, p := range pkts {
		n += len(p.Payload)
	}
	return n
}
