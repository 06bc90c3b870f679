package attack_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash"
	"testing"

	"mavr/internal/attack"
	"mavr/internal/firmware"
)

// TestPayloadKnownAnswers pins every byte the V1/V2/V3 builders emit
// over a grid wider than the scenario goldens: the test application and
// the three paper profiles, each built in MAVR and stock mode; six
// analyses per image (the canonical gadgets, the bootloader's fixed
// gadgets, and the write_mem a blind attacker assumes at 0x400, 0x800,
// 0xC00 and at the true store address); and 0 to 40 writes, each list
// built as V1, V2 and V3. Each image's digest is the SHA-256 over every
// case in order: the payload bytes, or the error's class (too long, or
// any other) — the error text is not pinned. The digests were recorded
// before V1/V2/V3 became the chain synthesizer's builders and must
// never be re-recorded.
func TestPayloadKnownAnswers(t *testing.T) {
	want := map[string]string{
		"testapp/mavr":     "0d15be84f4f49777fd83099f5fad347f42b624a193779f2d34a6e3845c01f87b",
		"testapp/stock":    "159c2e900fee05dadba38d9e0d1b5a16308c452444409f78ccb0a06a6f7f8040",
		"arduplane/mavr":   "6c994c3c8b745e3afd9c74fe1bc2c9555f8550a68e18e791283f1f135f61af64",
		"arduplane/stock":  "57c8e4687f679b0061494eb06a3376ace5e9f6c8a1e62c76d261bcea1e88aecb",
		"arducopter/mavr":  "1e2a92c187191286d1b32c1eadca1917add88026d3455cb4fffdbb2068531d2f",
		"arducopter/stock": "e11e9f1318521f7d8872e7e4e685a282cfa34b7ae0e2171f856a3f2632ec7c37",
		"ardurover/mavr":   "e8a629f79ff7229a04dac59d55c518d6980baca3b8e4574c7104fb5698fecd5e",
		"ardurover/stock":  "dc957aa13b7f87cd556a908805e9ed652a79dc1517fd4e9a731df0250417e835",
	}
	modes := []struct {
		name string
		mode firmware.ToolchainMode
	}{{"mavr", firmware.ModeMAVR}, {"stock", firmware.ModeStock}}
	for _, spec := range append([]firmware.AppSpec{firmware.TestApp()}, firmware.Profiles()...) {
		for _, m := range modes {
			key := spec.Name + "/" + m.name
			img, err := firmware.Generate(spec, m.mode)
			if err != nil {
				t.Fatal(err)
			}
			a, err := attack.Analyze(img.ELF)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			boot := *a
			bootErr := boot.UseFixedGadgets(img.Bootloader, firmware.BootloaderStart)
			analyses := []*attack.Analysis{a, &boot}
			for _, c := range []uint32{0x400, 0x800, 0xC00, a.WriteMem.StoreAddr} {
				analyses = append(analyses, a.AssumeWriteMem(c))
			}
			h := sha256.New()
			for i, an := range analyses {
				if i == 1 && bootErr != nil {
					h.Write([]byte("no fixed gadgets"))
					continue
				}
				for n := 0; n <= 40; n++ {
					writes := katWrites(n)
					p, err := attack.BuildV1(an, writes...)
					hashPayload(h, p, err)
					p, err = attack.BuildV2(an, writes...)
					hashPayload(h, p, err)
					ps, err := attack.BuildV3(an, writes, firmware.AddrFreeMem)
					hashPayload(h, nil, err)
					for _, p := range ps {
						hashPayload(h, p, nil)
					}
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want[key] {
				t.Errorf("%s: payload digest %s, want %s", key, got, want[key])
			}
		}
	}
}

// katWrites is a deterministic list of n writes spread over SRAM.
func katWrites(n int) []attack.Write {
	ws := make([]attack.Write, n)
	for i := range ws {
		ws[i] = attack.Write{
			Addr: 0x1200 + uint16(7*i),
			Vals: [3]byte{byte(i), byte(0x80 ^ 3*i), byte(0xFF - i)},
		}
	}
	return ws
}

// hashPayload feeds one build's outcome to h: a class byte, then the
// length-prefixed payload of a successful build.
func hashPayload(h hash.Hash, p []byte, err error) {
	switch {
	case errors.Is(err, attack.ErrPayloadTooLong):
		h.Write([]byte{'T'})
	case err != nil:
		h.Write([]byte{'E'})
	default:
		var n [2]byte
		binary.BigEndian.PutUint16(n[:], uint16(len(p)))
		h.Write([]byte{'P'})
		h.Write(n[:])
		h.Write(p)
	}
}
