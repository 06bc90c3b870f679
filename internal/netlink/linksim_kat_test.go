package netlink

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
	"time"
)

// Known answers recorded before Fate moved onto internal/detrand: the
// SHA-256 of every (drop, copies, delay) fate of three links over
// sequence numbers 0-999, for seeds 1-3.
func TestFateKnownAnswers(t *testing.T) {
	for i, w := range []string{
		"f79008b1817c95ca1e4f4f8ad6fbc396030ccf7ed98812d5fef055f86cafdfc7",
		"f1dc68ddf7154f96f00f74c205162ebc1ecb24ba85884c22f79455e9b6a73f25",
		"b9efeca0bd588d8ad0ba68cf3a7ffa91cedca7a8a4ed162d1c1cd8da758fa1c4",
	} {
		seed := int64(i + 1)
		c := SimConfig{Seed: seed, DropRate: 0.2, DupRate: 0.1, Latency: 5 * time.Millisecond, Jitter: 20 * time.Millisecond}
		h := sha256.New()
		for _, link := range []string{"v1/down", "v1/up", "v7/down"} {
			for seq := uint32(0); seq < 1000; seq++ {
				f := c.Fate(link, seq)
				var rec [17]byte
				if f.Drop {
					rec[0] = 1
				}
				binary.LittleEndian.PutUint64(rec[1:], uint64(f.Copies))
				binary.LittleEndian.PutUint64(rec[9:], uint64(f.Delay))
				h.Write(rec[:])
			}
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != w {
			t.Errorf("seed %d: fate digest %s, want %s", seed, got, w)
		}
	}
}
