package vsa

// Val is the abstract value of one register: a byte set plus optional
// table provenance. When Tab is non-nil the concrete value is the byte
// at one of those flash offsets *in the image being verified* — exact
// knowledge even for offsets the pointer patcher rewrites per
// permutation, which is how icall targets loaded from a patched
// dispatch table resolve without baking in one permutation's bytes.
// Set always independently over-approximates the value (it is Top when
// the offsets cover patched bytes), so arithmetic may drop Tab and use
// Set alone.
type Val struct {
	Set ByteSet
	Tab []uint32 // sorted flash byte offsets, nil if untracked
}

func topVal() Val { return Val{Set: Top()} }

func joinVal(a, b Val) Val {
	out := Val{Set: a.Set.Union(b.Set)}
	out.Tab = joinTabs(a.Tab, b.Tab)
	return out
}

// joinTabs merges two provenance offset lists. A value from either of
// two tables is a value from the union of their offsets; unbounded
// growth is cut at tabCap.
func joinTabs(a, b []uint32) []uint32 {
	if a == nil || b == nil {
		return nil
	}
	if equalTabs(a, b) {
		return a // lists are sorted and unique: the merge would copy a
	}
	out := make([]uint32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	if len(out) > tabCap {
		return nil
	}
	return out
}

func equalTabs(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Domain size caps. All are precision/speed trade-offs, never
// soundness: exceeding a cap degrades to top.
const (
	// binCap bounds the cross product a binary transfer enumerates.
	binCap = 4096
	// addrCap bounds how many concrete addresses a pointer-pair load
	// or store resolves to.
	addrCap = 64
	// tabCap bounds table-provenance offset lists.
	tabCap = 64
	// pairCap bounds the cross product of 16-bit pair arithmetic
	// (ADIW/SBIW, pointer post-increment).
	pairCap = 1024
	// visitCap is the per-block fixpoint visit budget before joins
	// widen changing components straight to top.
	visitCap = 24
)

// Role marks a register as holding one half of the stack pointer, read
// by IN at a known exact stack height. Two matching halves read at the
// same height establish an SP tag on their register pair.
type Role struct {
	Kind uint8 // roleNone, roleSPL, roleSPH
	H    Height
}

const (
	roleNone uint8 = iota
	roleSPL
	roleSPH
)

// Tag relates an even register pair to the entry stack pointer:
// pair = SPentry - Delta. It survives the pair arithmetic the compiler
// uses for frame setup (ADIW/SBIW, fused SUBI+SBCI) and MOVW copies,
// and lets a later OUT SPH/OUT SPL sequence re-establish an exact
// stack height.
type Tag struct {
	Ok    bool
	Delta Height
}

// Pending tracks a half-written stack pointer: the first OUT to
// SPH/SPL makes the height unknown until the second half lands and the
// pair pattern is recognized.
type Pending struct {
	Half    uint8 // pendNone, pendWroteSPH, pendWroteSPL
	Pair    int8  // source pair index for tagged writes, -1 for const
	Delta   Height
	IsConst bool
}

const (
	pendNone uint8 = iota
	pendWroteSPH
	pendWroteSPL
)

// State is the abstract machine state at one program point.
type State struct {
	Bot   bool // unreachable
	Regs  [32]Val
	Flags [8]Flag
	// EIND and RAMPZ mirror the extended-pointer I/O registers.
	EIND, RAMPZ ByteSet
	H           Height
	Roles       [32]Role
	Tags        [16]Tag
	// Words is matched-word provenance per even register pair: non-nil
	// means the 16-bit pair value equals the little-endian word at one
	// of these flash byte offsets in the image being verified. Unlike
	// the per-half Tab sets it preserves the lo/hi correlation, which
	// only the two-instruction adjacent-load idioms can prove (the
	// second load's address is the first's plus one by construction).
	Words [16][]uint32
	Pend  Pending
	// NegH latches that the height lower bound went negative (the
	// function pops into its caller's frame) — sticky for reporting.
	NegH bool
}

// EntryState is the abstract state at a function entry: nothing known
// about registers or flags, stack height exactly zero.
func EntryState() *State {
	st := entryState()
	return &st
}

func entryState() State {
	st := State{EIND: Top(), RAMPZ: Top()}
	for i := range st.Regs {
		st.Regs[i] = topVal()
	}
	for i := range st.Flags {
		st.Flags[i] = FlagBoth
	}
	return st
}

// Clone returns a deep copy.
func (st *State) Clone() *State {
	out := *st
	return &out
}

// Join merges o into st, returning whether st changed. widen forces
// any changing component straight to top so a capped fixpoint
// terminates immediately.
func (st *State) Join(o *State, widen bool) bool {
	if o.Bot {
		return false
	}
	if st.Bot {
		*st = *o
		return true
	}
	changed := false
	for i := range st.Regs {
		j := joinVal(st.Regs[i], o.Regs[i])
		if !j.Set.Equal(st.Regs[i].Set) || !equalTabs(j.Tab, st.Regs[i].Tab) {
			if widen {
				j = topVal()
			}
			st.Regs[i] = j
			changed = true
		}
	}
	for i := range st.Flags {
		if j := st.Flags[i].Join(o.Flags[i]); j != st.Flags[i] {
			st.Flags[i] = j
			changed = true
		}
	}
	if j := st.EIND.Union(o.EIND); !j.Equal(st.EIND) {
		st.EIND = j
		changed = true
	}
	if j := st.RAMPZ.Union(o.RAMPZ); !j.Equal(st.RAMPZ) {
		st.RAMPZ = j
		changed = true
	}
	if j := st.H.Join(o.H); !j.Equal(st.H) {
		if widen {
			j = HeightTop()
		}
		st.H = j
		changed = true
	}
	for i := range st.Roles {
		if st.Roles[i].Kind != roleNone &&
			(st.Roles[i].Kind != o.Roles[i].Kind || !st.Roles[i].H.Equal(o.Roles[i].H)) {
			st.Roles[i] = Role{}
			changed = true
		}
	}
	for i := range st.Tags {
		switch {
		case !st.Tags[i].Ok:
		case !o.Tags[i].Ok:
			st.Tags[i] = Tag{}
			changed = true
		default:
			if j := st.Tags[i].Delta.Join(o.Tags[i].Delta); !j.Equal(st.Tags[i].Delta) {
				// The delta hull has unbounded height (a loop shifting a
				// tagged pair grows it every pass), so any change under
				// widening — and any non-singleton growth at all — drops
				// the tag instead of inching toward divergence. A tag is
				// only ever consumed at a singleton delta anyway.
				if widen || !j.Singleton() {
					st.Tags[i] = Tag{}
				} else {
					st.Tags[i].Delta = j
				}
				changed = true
			}
		}
	}
	for i := range st.Words {
		if st.Words[i] == nil {
			continue
		}
		if j := joinTabs(st.Words[i], o.Words[i]); !equalTabs(j, st.Words[i]) {
			if widen {
				j = nil
			}
			st.Words[i] = j
			changed = true
		}
	}
	if st.Pend != o.Pend && st.Pend.Half != pendNone {
		st.Pend = Pending{}
		changed = true
	}
	if o.NegH && !st.NegH {
		st.NegH = true
		changed = true
	}
	return changed
}

// setReg writes a register, killing any SP role/tag and matched-word
// provenance that depended on its old value.
func (st *State) setReg(r int, v Val) {
	st.Regs[r] = v
	st.Roles[r] = Role{}
	st.Tags[r/2] = Tag{}
	st.Words[r/2] = nil
}

// pairVal reads the 16-bit pair at even register lo as the cross
// product of its halves' sets: every concrete pair value the halves
// can combine to, a sound over-approximation of the matched pairs a
// real execution produces.
func (st *State) pairVal(lo int) (loS, hiS ByteSet) {
	return st.Regs[lo].Set, st.Regs[lo+1].Set
}

// pairAddrs enumerates the 16-bit values the pair at lo may hold, or
// nil when unbounded (either half top, or product above addrCap).
func (st *State) pairAddrs(lo int) []uint16 {
	return st.pairEnum(lo, addrCap)
}

// pairEnum is pairAddrs with an explicit product cap (pair arithmetic
// tolerates larger sets than address resolution).
func (st *State) pairEnum(lo, limit int) []uint16 {
	loS, hiS := st.pairVal(lo)
	nl, nh := loS.Size(), hiS.Size()
	if nl == 0 || nh == 0 || nl*nh > limit {
		return nil
	}
	out := make([]uint16, 0, nl*nh)
	var hbuf, lbuf [256]byte
	lv := loS.AppendValues(lbuf[:0])
	for _, h := range hiS.AppendValues(hbuf[:0]) {
		for _, l := range lv {
			out = append(out, uint16(h)<<8|uint16(l))
		}
	}
	sortU16(out)
	return dedupU16(out)
}

func sortU16(xs []uint16) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func dedupU16(xs []uint16) []uint16 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// setPair writes both halves of a 16-bit result set projected from the
// enumerated pair values.
func (st *State) setPair(lo int, pairs []uint16) {
	if pairs == nil {
		st.setReg(lo, topVal())
		st.setReg(lo+1, topVal())
		return
	}
	var loS, hiS ByteSet
	for _, p := range pairs {
		loS = loS.Add(byte(p))
		hiS = hiS.Add(byte(p >> 8))
	}
	st.setReg(lo, Val{Set: loS})
	st.setReg(lo+1, Val{Set: hiS})
}
