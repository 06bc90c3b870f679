package chaos

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
	"time"
)

// Known answers for seeds 1-3 under mavr-chaos's default rates,
// recorded before the fate hashes moved onto internal/detrand: the link
// digest, the SHA-256 of the 4-vehicle 500-tick schedule trace, and the
// jittered restart backoffs of entities 1 and 2 for attempts 0-3.
func TestScheduleKnownAnswers(t *testing.T) {
	for _, tc := range []struct {
		seed    int64
		link    uint64
		trace   string
		backoff [8]time.Duration
	}{
		{1, 0x51cdf677f05a6957, "d0b542e8c7b96d3f2053d0ca0db0a112cff58db6bb7a5b7bcd76728b67dcfda6",
			[8]time.Duration{9838598, 18906234, 31132136, 73816884, 5480242, 15686917, 39020444, 65041865}},
		{2, 0x81fbaa867cbae6c2, "b4d9e253ea920453114fa0e8e5d5a9ce5694ac9d941e96851fd4618073ff55b4",
			[8]time.Duration{5990958, 13619787, 22482075, 46280208, 8297415, 15601819, 25116734, 79798863}},
		{3, 0x8f19eefff9e97790, "121ea47e2ddfed6c02af8f3e01278fb3e48c743ca25294783599609c524999cd",
			[8]time.Duration{8297415, 15601819, 25116734, 79798863, 5990958, 13619787, 22482075, 46280208}},
	} {
		cfg := Config{Seed: tc.seed, PanicRate: 0.003, HangRate: 0.002, StallRate: 0.002,
			PartitionDownRate: 0.08, PartitionUpRate: 0.03, PartitionWindow: 64, CorruptRate: 0.03, ChurnRate: 0.1}
		if got := cfg.LinkDigest(4, 500); got != tc.link {
			t.Errorf("seed %d: LinkDigest = %#x, want %#x", tc.seed, got, tc.link)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(cfg.ScheduleTrace(4, 500)))); got != tc.trace {
			t.Errorf("seed %d: ScheduleTrace SHA-256 = %s, want %s", tc.seed, got, tc.trace)
		}
		var got [8]time.Duration
		for i := range got {
			got[i] = Backoff(tc.seed, uint64(i/4+1), i%4, 10*time.Millisecond, time.Second)
		}
		if got != tc.backoff {
			t.Errorf("seed %d: Backoff = %d, want %d", tc.seed, got, tc.backoff)
		}
	}
}

// Known answers recorded before the datagram fate moved onto
// internal/detrand: the SHA-256 of every (drop, copies, delay) fate of
// three links over sequence numbers 0-999, for seeds 1-3.
func TestFateKnownAnswers(t *testing.T) {
	for i, w := range []string{
		"f79008b1817c95ca1e4f4f8ad6fbc396030ccf7ed98812d5fef055f86cafdfc7",
		"f1dc68ddf7154f96f00f74c205162ebc1ecb24ba85884c22f79455e9b6a73f25",
		"b9efeca0bd588d8ad0ba68cf3a7ffa91cedca7a8a4ed162d1c1cd8da758fa1c4",
	} {
		seed := int64(i + 1)
		c := Config{Seed: seed, DropRate: 0.2, DupRate: 0.1, Latency: 5 * time.Millisecond, Jitter: 20 * time.Millisecond}
		h := sha256.New()
		for _, link := range []Link{
			{Dir: Down, SysID: 1, Name: "v1/down"},
			{Dir: Up, SysID: 1, Name: "v1/up"},
			{Dir: Down, SysID: 7, Name: "v7/down"},
		} {
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
