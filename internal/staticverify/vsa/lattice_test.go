package vsa

import (
	"math/rand"
	"testing"

	"mavr/internal/avr"
)

func TestByteSetOps(t *testing.T) {
	if !Const(0x42).Has(0x42) || Const(0x42).Size() != 1 {
		t.Fatal("Const is not a singleton")
	}
	s := FromBytes(1, 7, 255)
	if s.Size() != 3 || !s.Has(255) || s.Has(0) {
		t.Fatalf("FromBytes membership wrong: %v", s.Values())
	}
	u := s.Union(FromBytes(0, 7))
	if u.Size() != 4 || !u.Has(0) {
		t.Fatalf("Union wrong: %v", u.Values())
	}
	m := u.Intersect(FromBytes(7, 200))
	if !m.Equal(Const(7)) {
		t.Fatalf("Intersect wrong: %v", m.Values())
	}
	if !Top().IsTop() || Top().Size() != 256 {
		t.Fatal("Top is not the full set")
	}
	var empty ByteSet
	if !empty.IsEmpty() || empty.Size() != 0 {
		t.Fatal("zero value is not empty")
	}
	if !Top().Union(s).IsTop() || !Top().Intersect(s).Equal(s) {
		t.Fatal("Top is not an absorbing join / neutral meet element")
	}
	if !empty.Union(s).Equal(s) || !empty.Intersect(s).IsEmpty() {
		t.Fatal("empty is not a neutral join / absorbing meet element")
	}
	vals := FromBytes(200, 3, 100).Values()
	for i := 1; i < len(vals); i++ {
		if vals[i-1] >= vals[i] {
			t.Fatalf("Values not ascending: %v", vals)
		}
	}
	// Map1 collapses under non-injective maps and wraps modulo 256.
	inc := FromBytes(0xFF, 0x00).Map1(func(v byte) byte { return v + 1 })
	if !inc.Equal(FromBytes(0x00, 0x01)) {
		t.Fatalf("Map1 increment wrong: %v", inc.Values())
	}
	and := Top().Map1(func(v byte) byte { return v & 0x01 })
	if and.Size() != 2 {
		t.Fatalf("Map1 mask did not collapse top: %d values", and.Size())
	}
}

func TestFlagLattice(t *testing.T) {
	if FlagClear.Join(FlagSet) != FlagBoth {
		t.Fatal("clear ⊔ set != both")
	}
	if !FlagBoth.MayClear() || !FlagBoth.MaySet() {
		t.Fatal("both must allow either concrete value")
	}
	if FlagOf(true) != FlagSet || FlagOf(false) != FlagClear {
		t.Fatal("FlagOf wrong")
	}
	if FlagSet.MayClear() || FlagClear.MaySet() {
		t.Fatal("singleton flags leak the other value")
	}
}

func TestHeightLattice(t *testing.T) {
	a := Height{Lo: 2, Hi: 4}
	b := Height{Lo: -1, Hi: 3}
	j := a.Join(b)
	if j.Lo != -1 || j.Hi != 4 || j.Top {
		t.Fatalf("hull wrong: %+v", j)
	}
	if !a.Join(HeightTop()).Top || !HeightTop().Join(a).Top {
		t.Fatal("top must absorb joins")
	}
	if got := a.Add(-2); got.Lo != 0 || got.Hi != 2 {
		t.Fatalf("Add wrong: %+v", got)
	}
	if !HeightTop().Add(5).Top {
		t.Fatal("top must absorb shifts")
	}
	if !(Height{Lo: 3, Hi: 3}).Singleton() || (Height{Lo: 3, Hi: 4}).Singleton() || HeightTop().Singleton() {
		t.Fatal("Singleton wrong")
	}
	if !(Height{}).IsZero() || (Height{Lo: 0, Hi: 1}).IsZero() {
		t.Fatal("IsZero wrong")
	}
}

func TestJoinTabs(t *testing.T) {
	got := joinTabs([]uint32{1, 5, 9}, []uint32{2, 5, 10})
	want := []uint32{1, 2, 5, 9, 10}
	if !equalTabs(got, want) {
		t.Fatalf("merge = %v, want %v", got, want)
	}
	if joinTabs(nil, []uint32{1}) != nil || joinTabs([]uint32{1}, nil) != nil {
		t.Fatal("nil (top) must absorb joins")
	}
	// A union exceeding tabCap degrades to nil rather than growing
	// without bound.
	big := make([]uint32, tabCap)
	other := make([]uint32, tabCap)
	for i := range big {
		big[i] = uint32(2 * i)
		other[i] = uint32(2*i + 1)
	}
	if joinTabs(big, other) != nil {
		t.Fatal("over-cap union must degrade to nil")
	}
	if !equalTabs(joinTabs(big, big), big) {
		t.Fatal("self-join must be identity")
	}
}

// State.Join under widening forces every changing component straight to
// top, and a stack-pointer tag whose delta stops being a single value
// dies instead of accumulating an unbounded interval (the fixpoint
// termination fix: the delta hull has no finite height).
func TestStateJoinWidening(t *testing.T) {
	a := EntryState()
	a.Regs[16] = Val{Set: Const(1)}
	b := EntryState()
	b.Regs[16] = Val{Set: Const(2)}
	if !a.Clone().Join(b, false) {
		t.Fatal("join of differing states must report change")
	}
	w := a.Clone()
	w.Join(b, true)
	if !w.Regs[16].Set.IsTop() {
		t.Fatal("widening join must take changing registers to top")
	}

	a = EntryState()
	a.Tags[13] = Tag{Ok: true, Delta: Height{Lo: 2, Hi: 2}}
	b = EntryState()
	b.Tags[13] = Tag{Ok: true, Delta: Height{Lo: 4, Hi: 4}}
	g := a.Clone()
	g.Join(b, false)
	if g.Tags[13].Ok {
		t.Fatal("non-singleton delta growth must drop the tag")
	}
	same := a.Clone()
	same.Join(a.Clone(), false)
	if !same.Tags[13].Ok || !same.Tags[13].Delta.Singleton() {
		t.Fatal("identical tags must survive the join")
	}

	a = EntryState()
	a.Words[5] = []uint32{10, 20}
	b = EntryState()
	b.Words[5] = []uint32{30}
	ww := a.Clone()
	ww.Join(b, true)
	if ww.Words[5] != nil {
		t.Fatal("widening join must drop changing word provenance")
	}
	nw := a.Clone()
	nw.Join(b, false)
	if !equalTabs(nw.Words[5], []uint32{10, 20, 30}) {
		t.Fatalf("word provenance join wrong: %v", nw.Words[5])
	}
}

// Abstract 8-bit arithmetic wraps exactly like the hardware: the result
// set of ADD contains every pairwise sum modulo 256, and the carry flag
// reflects whether any pair overflowed.
func TestAbstractAddOverflow(t *testing.T) {
	st := EntryState()
	st.Regs[16] = Val{Set: FromBytes(0xFE, 0x01)}
	st.Regs[17] = Val{Set: FromBytes(0x03)}
	Step(st, avr.Instr{Op: avr.OpADD, D: 16, R: 17}, nil)
	if !st.Regs[16].Set.Equal(FromBytes(0x01, 0x04)) {
		t.Fatalf("add result = %v, want wrapped {1, 4}", st.Regs[16].Set.Values())
	}
	if !st.Flags[avr.FlagC].MayClear() || !st.Flags[avr.FlagC].MaySet() {
		t.Fatalf("carry must be both (one pair overflows, one does not): %v", st.Flags[avr.FlagC])
	}

	// The D==R diagonal doubles each value instead of crossing the set
	// with itself.
	st = EntryState()
	st.Regs[20] = Val{Set: FromBytes(0x80, 0x01)}
	Step(st, avr.Instr{Op: avr.OpADD, D: 20, R: 20}, nil)
	if !st.Regs[20].Set.Equal(FromBytes(0x00, 0x02)) {
		t.Fatalf("diagonal add = %v, want {0, 2}", st.Regs[20].Set.Values())
	}
	if !st.Flags[avr.FlagC].MaySet() {
		t.Fatal("0x80+0x80 must be able to carry")
	}
}

// The closed-form transfers must equal member-by-member enumeration:
// logic ops with a constant against top, and SREG composed from the
// flag lattice.
func TestClosedFormsMatchEnumeration(t *testing.T) {
	for k := 0; k < 256; k++ {
		for _, op := range []avr.Op{avr.OpAND, avr.OpANDI, avr.OpOR, avr.OpORI, avr.OpEOR} {
			var want ByteSet
			for x := 0; x < 256; x++ {
				switch op {
				case avr.OpAND, avr.OpANDI:
					want = want.Add(byte(x) & byte(k))
				case avr.OpOR, avr.OpORI:
					want = want.Add(byte(x) | byte(k))
				default:
					want = want.Add(byte(x) ^ byte(k))
				}
			}
			if got := absLogic(Top(), Const(byte(k)), op, false); !got.Equal(want) {
				t.Fatalf("top %s 0x%02X = %v, want %v", op, k, got.Values(), want.Values())
			}
			if got := absLogic(Const(byte(k)), Top(), op, false); !got.Equal(want) {
				t.Fatalf("0x%02X %s top = %v, want %v", k, op, got.Values(), want.Values())
			}
		}
	}

	flags := []Flag{0, FlagClear, FlagSet, FlagBoth}
	var st State
	for combo := 0; combo < 1<<16; combo += 7 { // a deterministic sample
		for i := range st.Flags {
			st.Flags[i] = flags[combo>>(2*i)&3]
		}
		var want ByteSet
		for v := 0; v < 256; v++ {
			ok := true
			for i, f := range st.Flags {
				if v&(1<<i) != 0 && !f.MaySet() || v&(1<<i) == 0 && !f.MayClear() {
					ok = false
				}
			}
			if ok {
				want = want.Add(byte(v))
			}
		}
		if got := sregSet(&st); !got.Equal(want) {
			t.Fatalf("flags %v: SREG set %v, want %v", st.Flags, got.Values(), want.Values())
		}
	}

	for s := 0; s < 256; s++ {
		set := FromBytes(byte(s), byte(s*7), byte(s^0x80))
		for b := 0; b < 8; b++ {
			var want Flag
			for _, v := range set.Values() {
				want |= FlagOf(v&(1<<b) != 0)
			}
			if got := bitFlag(set, b); got != want {
				t.Fatalf("bit %d of %v: %v, want %v", b, set.Values(), got, want)
			}
		}
	}
}

// testSets is a deterministic spread of byte sets: empty, top,
// singletons at the edges, and random sets of every density.
func testSets() []ByteSet {
	sets := []ByteSet{{}, Top(), Const(0), Const(1), Const(0x7F), Const(0x80), Const(0xFF)}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 40; n++ {
		var s ByteSet
		density := rng.Intn(256)
		for v := 0; v < 256; v++ {
			if rng.Intn(256) < density {
				s = s.Add(byte(v))
			}
		}
		sets = append(sets, s)
	}
	return sets
}

// The rotate and halve forms of constant add/sub and the shifts must
// equal member-by-member enumeration.
func TestShiftFormsMatchEnumeration(t *testing.T) {
	cins := []Flag{0, FlagClear, FlagSet, FlagBoth}
	for _, s := range testSets() {
		for k := 0; k < 256; k++ {
			for _, cin := range cins {
				var wantAdd, wantSub ByteSet
				var cfAdd, cfSub Flag
				for _, x := range s.Values() {
					for c := 0; c < 2; c++ {
						if c == 0 && !cin.MayClear() || c == 1 && !cin.MaySet() {
							continue
						}
						sum := int(x) + k + c
						wantAdd = wantAdd.Add(byte(sum))
						cfAdd |= FlagOf(sum > 0xFF)
						wantSub = wantSub.Add(x - byte(k) - byte(c))
						cfSub |= FlagOf(k+c > int(x))
					}
				}
				if res, cf := absAdd(s, Const(byte(k)), cin, false); !res.Equal(wantAdd) || cf != cfAdd {
					t.Fatalf("%v + 0x%02X (cin %d) = %v/%d, want %v/%d", s.Values(), k, cin, res.Values(), cf, wantAdd.Values(), cfAdd)
				}
				if res, cf := absAdd(Const(byte(k)), s, cin, false); !res.Equal(wantAdd) || cf != cfAdd {
					t.Fatalf("0x%02X + %v (cin %d) = %v/%d, want %v/%d", k, s.Values(), cin, res.Values(), cf, wantAdd.Values(), cfAdd)
				}
				if res, cf := absSub(s, Const(byte(k)), cin, false); !res.Equal(wantSub) || cf != cfSub {
					t.Fatalf("%v - 0x%02X (cin %d) = %v/%d, want %v/%d", s.Values(), k, cin, res.Values(), cf, wantSub.Values(), cfSub)
				}
			}
		}

		for _, op := range []avr.Op{avr.OpASR, avr.OpLSR, avr.OpROR} {
			for _, c := range cins {
				var want ByteSet
				var cf Flag
				for _, v := range s.Values() {
					cf |= FlagOf(v&1 != 0)
					switch {
					case op == avr.OpASR:
						want = want.Add(v>>1 | v&0x80)
					case op == avr.OpLSR:
						want = want.Add(v >> 1)
					default:
						if c.MayClear() {
							want = want.Add(v >> 1)
						}
						if c.MaySet() {
							want = want.Add(v>>1 | 0x80)
						}
					}
				}
				st := EntryState()
				st.Regs[20].Set = s
				st.Flags[avr.FlagC] = c
				Step(st, avr.Instr{Op: op, D: 20}, nil)
				if !st.Regs[20].Set.Equal(want) || st.Flags[avr.FlagC] != cf {
					t.Fatalf("%s %v (C %d) = %v/%d, want %v/%d", op, s.Values(), c, st.Regs[20].Set.Values(), st.Flags[avr.FlagC], want.Values(), cf)
				}
			}
		}
	}
}

// Binary transfers over two sets must equal the capped enumeration of
// the cross product (top above binCap), off and on the diagonal.
func TestCrossProductsMatchEnumeration(t *testing.T) {
	sets := testSets()
	logic := []avr.Op{avr.OpAND, avr.OpOR, avr.OpEOR}
	for i, a := range sets {
		for j, b := range sets {
			if (i+j)%5 != 0 {
				continue
			}
			for _, op := range logic {
				want := Top()
				if a.Size()*b.Size() <= binCap {
					want = ByteSet{}
					for _, x := range a.Values() {
						for _, y := range b.Values() {
							switch op {
							case avr.OpAND:
								want = want.Add(x & y)
							case avr.OpOR:
								want = want.Add(x | y)
							default:
								want = want.Add(x ^ y)
							}
						}
					}
				}
				if got := absLogic(a, b, op, false); !got.Equal(want) {
					t.Fatalf("%v %s %v = %v, want %v", a.Values(), op, b.Values(), got.Values(), want.Values())
				}
			}
			for _, cin := range []Flag{0, FlagClear, FlagSet, FlagBoth} {
				for _, same := range []bool{false, true} {
					if same && j != i {
						continue
					}
					civ, nci := cinVals(cin)
					wantAdd, wantSub := Top(), Top()
					cfAdd, cfSub := FlagBoth, FlagBoth
					n := b.Size()
					if same {
						n = 1
					}
					if a.Size()*n*nci <= binCap {
						wantAdd, wantSub, cfAdd, cfSub = ByteSet{}, ByteSet{}, 0, 0
						for _, x := range a.Values() {
							ys := b.Values()
							if same {
								ys = []byte{x}
							}
							for _, y := range ys {
								for _, c := range civ[:nci] {
									s := int(x) + int(y) + int(c)
									wantAdd = wantAdd.Add(byte(s))
									cfAdd |= FlagOf(s > 0xFF)
									wantSub = wantSub.Add(x - y - c)
									cfSub |= FlagOf(int(y)+int(c) > int(x))
								}
							}
						}
					}
					if res, cf := absAdd(a, b, cin, same); !res.Equal(wantAdd) || cf != cfAdd {
						t.Fatalf("%v + %v (cin %d, same %v) = %v/%d, want %v/%d", a.Values(), b.Values(), cin, same, res.Values(), cf, wantAdd.Values(), cfAdd)
					}
					if res, cf := absSub(a, b, cin, same); !res.Equal(wantSub) || cf != cfSub {
						t.Fatalf("%v - %v (cin %d, same %v) = %v/%d, want %v/%d", a.Values(), b.Values(), cin, same, res.Values(), cf, wantSub.Values(), cfSub)
					}
				}
			}
		}
	}
}
