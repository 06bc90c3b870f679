package detrand

import "testing"

// Known answers. Stream(0) and Stream(1234567) are the reference
// SplitMix64 sequences published with the algorithm; FNV64 uses the
// reference FNV-1a test vectors. Every seeded schedule in the
// repository is built on these outputs, so a changed constant fails
// here before it moves a golden trace or a scengen digest.
func TestStreamKnownAnswers(t *testing.T) {
	for _, tc := range []struct {
		state uint64
		want  [5]uint64
	}{
		{0, [5]uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f, 0xf88bb8a8724c81ec, 0x1b39896a51a8749b}},
		{1234567, [5]uint64{6457827717110365317, 3203168211198807973, 9817491932198370423, 4593380528125082431, 16408922859458223821}},
	} {
		s := NewStream(tc.state)
		for i, w := range tc.want {
			if got := s.Uint64(); got != w {
				t.Errorf("NewStream(%d) draw %d = %#x, want %#x", tc.state, i, got, w)
			}
		}
	}
	var zero Stream
	if got := zero.Uint64(); got != 0xe220a8397b1dcdaf {
		t.Errorf("zero Stream first draw = %#x, want the state-0 stream", got)
	}
}

func TestMixAndHashKnownAnswers(t *testing.T) {
	for _, tc := range []struct{ in, mix, hash uint64 }{
		{0, 0, 0xe220a8397b1dcdaf},
		{1, 0x5692161d100b05e5, 0x910a2dec89025cc1},
		{Gamma, 0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4},
		{0xFFFFFFFFFFFFFFFF, 0xb4d055fcf2cbbd7b, 0xe4d971771b652c20},
	} {
		if got := Mix(tc.in); got != tc.mix {
			t.Errorf("Mix(%#x) = %#x, want %#x", tc.in, got, tc.mix)
		}
		if got := Hash(tc.in); got != tc.hash {
			t.Errorf("Hash(%#x) = %#x, want %#x", tc.in, got, tc.hash)
		}
	}
}

func TestUnit(t *testing.T) {
	for _, tc := range []struct {
		in   uint64
		want float64
	}{
		{0, 0},
		{1 << 63, 0.5},
		{0x7FF, 0}, // the low 11 bits are dropped
		{0xFFFFFFFFFFFFFFFF, 1 - 1.0/(1<<53)},
	} {
		if got := Unit(tc.in); got != tc.want {
			t.Errorf("Unit(%#x) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestFNV64KnownAnswers(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want uint64
	}{
		{"", 0xcbf29ce484222325},
		{"a", 0xaf63dc4c8601ec8c},
		{"foobar", 0x85944171f73967e8},
	} {
		if got := FNV64(tc.in); got != tc.want {
			t.Errorf("FNV64(%q) = %#x, want %#x", tc.in, got, tc.want)
		}
		if got := FNV64([]byte(tc.in)); got != tc.want {
			t.Errorf("FNV64([]byte(%q)) = %#x, want %#x", tc.in, got, tc.want)
		}
	}
}

// The primitive sits in per-draw hot loops; it must never allocate.
func TestNoAllocs(t *testing.T) {
	s := NewStream(7)
	var sink uint64
	var f float64
	if n := testing.AllocsPerRun(100, func() {
		sink += s.Uint64() + Hash(sink) + FNV64("link")
		f += Unit(sink)
	}); n != 0 {
		t.Errorf("allocs per draw = %v, want 0", n)
	}
	_ = f
}
