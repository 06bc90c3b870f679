// Package vsa is a value-set analysis over recovered AVR control-flow
// graphs (paper §VI context: proving where indirect control transfers
// can land after randomization). It abstracts each 8-bit register as
// the exact set of byte values it may hold (a 256-bit set; the full set
// is top), the SREG flags as may-be-0/may-be-1 pairs, and the stack
// height as an interval of bytes pushed since function entry. The
// domains are finite, so a worklist fixpoint terminates without
// widening; a visit-count cap widens anyway to bound time on
// pathological loops.
//
// Everything here must be deterministic: results feed byte-stable
// verification reports and a cached per-base fast path that translates
// them across permutations.
package vsa

import "math/bits"

// ByteSet is the abstract value of one 8-bit quantity: the set of
// concrete values it may hold. The zero value is the empty set
// (unreachable); the full set is top (unknown).
type ByteSet struct {
	bits [4]uint64
}

// Top returns the full set.
func Top() ByteSet {
	return ByteSet{bits: [4]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}}
}

// Const returns the singleton set {v}.
func Const(v byte) ByteSet {
	var s ByteSet
	s.bits[v>>6] = 1 << (v & 63)
	return s
}

// FromBytes returns the set of the given values.
func FromBytes(vs ...byte) ByteSet {
	var s ByteSet
	for _, v := range vs {
		s.bits[v>>6] |= 1 << (v & 63)
	}
	return s
}

// Has reports whether v is in the set.
func (s ByteSet) Has(v byte) bool {
	return s.bits[v>>6]&(1<<(v&63)) != 0
}

// Add returns the set with v added.
func (s ByteSet) Add(v byte) ByteSet {
	s.bits[v>>6] |= 1 << (v & 63)
	return s
}

// Union returns the join of two sets.
func (s ByteSet) Union(o ByteSet) ByteSet {
	for i := range s.bits {
		s.bits[i] |= o.bits[i]
	}
	return s
}

// Intersect returns the meet of two sets.
func (s ByteSet) Intersect(o ByteSet) ByteSet {
	for i := range s.bits {
		s.bits[i] &= o.bits[i]
	}
	return s
}

// Minus returns the members of s not in o.
func (s ByteSet) Minus(o ByteSet) ByteSet {
	for i := range s.bits {
		s.bits[i] &^= o.bits[i]
	}
	return s
}

// Size returns the number of values in the set.
func (s ByteSet) Size() int {
	n := 0
	for _, w := range s.bits {
		n += popcount(w)
	}
	return n
}

// IsTop reports whether the set is the full set.
func (s ByteSet) IsTop() bool {
	return s.bits[0]&s.bits[1]&s.bits[2]&s.bits[3] == ^uint64(0)
}

// IsEmpty reports whether the set is empty.
func (s ByteSet) IsEmpty() bool {
	return s.bits[0]|s.bits[1]|s.bits[2]|s.bits[3] == 0
}

// Equal reports set equality.
func (s ByteSet) Equal(o ByteSet) bool {
	return s.bits == o.bits
}

// Values returns the members in ascending order.
func (s ByteSet) Values() []byte {
	return s.AppendValues(make([]byte, 0, s.Size()))
}

// AppendValues appends the members in ascending order to dst. With a
// stack buffer (var buf [256]byte; s.AppendValues(buf[:0])) the
// transfer functions enumerate a set without allocating.
func (s ByteSet) AppendValues(dst []byte) []byte {
	for i, w := range s.bits {
		for w != 0 {
			b := trailingZeros(w)
			dst = append(dst, byte(i*64+b))
			w &= w - 1
		}
	}
	return dst
}

// Map1 applies f to every member.
func (s ByteSet) Map1(f func(byte) byte) ByteSet {
	var out ByteSet
	for i, w := range s.bits {
		for w != 0 {
			b := trailingZeros(w)
			out = out.Add(f(byte(i*64 + b)))
			w &= w - 1
		}
	}
	return out
}

// Rotate returns {x+d mod 256 : x in s}.
func (s ByteSet) Rotate(d byte) ByteSet {
	q, r := int(d/64), uint(d%64)
	var out ByteSet
	for i, w := range s.bits {
		out.bits[(i+q)%4] |= w << r
		if r != 0 {
			out.bits[(i+q+1)%4] |= w >> (64 - r)
		}
	}
	return out
}

// SetBit returns {x | 1<<j : x in s}: members without bit j move up
// by 1<<j.
func (s ByteSet) SetBit(j int) ByteSet {
	on, off := s.Intersect(bitSets[j]), s.Minus(bitSets[j])
	return on.Union(off.Rotate(1 << j))
}

// ClearBit returns {x &^ 1<<j : x in s}.
func (s ByteSet) ClearBit(j int) ByteSet {
	on, off := s.Intersect(bitSets[j]), s.Minus(bitSets[j])
	return off.Union(on.Rotate(-(byte(1) << j)))
}

// FlipBit returns {x ^ 1<<j : x in s}.
func (s ByteSet) FlipBit(j int) ByteSet {
	on, off := s.Intersect(bitSets[j]), s.Minus(bitSets[j])
	return off.Rotate(1 << j).Union(on.Rotate(-(byte(1) << j)))
}

// Halve returns {x>>1 : x in s}: each value pair 2m, 2m+1 folds onto m.
func (s ByteSet) Halve() ByteSet {
	var out ByteSet
	out.bits[0] = foldPairs(s.bits[0]) | foldPairs(s.bits[1])<<32
	out.bits[1] = foldPairs(s.bits[2]) | foldPairs(s.bits[3])<<32
	return out
}

// foldPairs ORs bits 2i and 2i+1 of w into bit i of the result.
func foldPairs(w uint64) uint64 {
	w = (w | w>>1) & 0x5555555555555555
	w = (w | w>>1) & 0x3333333333333333
	w = (w | w>>2) & 0x0F0F0F0F0F0F0F0F
	w = (w | w>>4) & 0x00FF00FF00FF00FF
	w = (w | w>>8) & 0x0000FFFF0000FFFF
	w = (w | w>>16) & 0x00000000FFFFFFFF
	return w
}

// below returns the values less than n (0 <= n <= 256).
func below(n int) ByteSet {
	var s ByteSet
	for i := range s.bits {
		switch lo := 64 * i; {
		case n >= lo+64:
			s.bits[i] = ^uint64(0)
		case n > lo:
			s.bits[i] = 1<<uint(n-lo) - 1
		}
	}
	return s
}

// bitSets[b] holds every byte value with bit b set.
var bitSets = func() (m [8]ByteSet) {
	for v := 0; v < 256; v++ {
		for b := 0; b < 8; b++ {
			if v&(1<<b) != 0 {
				m[b] = m[b].Add(byte(v))
			}
		}
	}
	return m
}()

// bitFlag returns the possibilities of bit b across the set.
func bitFlag(s ByteSet, b int) Flag {
	var f Flag
	if !s.Intersect(bitSets[b]).IsEmpty() {
		f |= FlagSet
	}
	if !s.Minus(bitSets[b]).IsEmpty() {
		f |= FlagClear
	}
	return f
}

// signFlag returns the possibilities of the sign bit across the set.
func signFlag(s ByteSet) Flag { return bitFlag(s, 7) }

func popcount(w uint64) int      { return bits.OnesCount64(w) }
func trailingZeros(w uint64) int { return bits.TrailingZeros64(w) }

// Flag is the abstract value of one SREG bit: bit 0 set means the flag
// may be 0, bit 1 set means it may be 1. FlagBoth is top; 0 is bottom.
type Flag uint8

const (
	FlagClear Flag = 1
	FlagSet   Flag = 2
	FlagBoth  Flag = 3
)

// Join returns the union of two flag abstractions.
func (f Flag) Join(o Flag) Flag { return f | o }

// MayClear reports whether the flag may be 0.
func (f Flag) MayClear() bool { return f&FlagClear != 0 }

// MaySet reports whether the flag may be 1.
func (f Flag) MaySet() bool { return f&FlagSet != 0 }

// FlagOf returns the abstraction of a concrete flag value.
func FlagOf(set bool) Flag {
	if set {
		return FlagSet
	}
	return FlagClear
}

// Height is the abstract stack height: bytes pushed since function
// entry as a [Lo, Hi] interval, or Top (unknown — e.g. after the
// function re-pointed SP to a value the analysis cannot relate to the
// entry SP). The zero value is the exact entry height [0, 0].
type Height struct {
	Lo, Hi int32
	Top    bool
}

// HeightTop is the unknown stack height.
func HeightTop() Height { return Height{Top: true} }

// Join returns the interval hull of two heights.
func (h Height) Join(o Height) Height {
	if h.Top || o.Top {
		return HeightTop()
	}
	if o.Lo < h.Lo {
		h.Lo = o.Lo
	}
	if o.Hi > h.Hi {
		h.Hi = o.Hi
	}
	return h
}

// Add shifts the interval by n bytes.
func (h Height) Add(n int32) Height {
	if h.Top {
		return h
	}
	h.Lo += n
	h.Hi += n
	return h
}

// Equal reports interval equality.
func (h Height) Equal(o Height) bool {
	if h.Top || o.Top {
		return h.Top == o.Top
	}
	return h.Lo == o.Lo && h.Hi == o.Hi
}

// IsZero reports the exact entry height [0, 0].
func (h Height) IsZero() bool { return !h.Top && h.Lo == 0 && h.Hi == 0 }

// Singleton reports whether the height is one exact value.
func (h Height) Singleton() bool { return !h.Top && h.Lo == h.Hi }
