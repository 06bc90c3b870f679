package vsa

// Targets concretizes a resolved site against one verified image: the
// sorted byte addresses its indirect transfer can reach. The cross
// product of the pointer halves over-approximates the matched pairs a
// real execution loads, and table-provenance halves read the image
// being verified, so the same descriptor yields each permutation's own
// exact target set. Returns nil for unresolved sites.
func (s *Site) Targets(img []byte) []uint32 {
	if !s.Resolved {
		return nil
	}
	if s.Words != nil {
		out := make([]uint32, 0, len(s.Words))
		for _, off := range s.Words {
			var w uint32
			if int(off)+1 < len(img) {
				w = uint32(img[off]) | uint32(img[off+1])<<8
			}
			out = append(out, w*2)
		}
		sortU32(out)
		return dedupU32(out)
	}
	lo := halfBytes(s.Lo, img)
	hi := halfBytes(s.Hi, img)
	out := make([]uint32, 0, len(lo)*len(hi))
	for _, h := range hi {
		for _, l := range lo {
			w := uint32(h)<<8 | uint32(l)
			out = append(out, w*2)
		}
	}
	sortU32(out)
	return dedupU32(out)
}

func halfBytes(h HalfSource, img []byte) []byte {
	if h.Offs == nil {
		return dedupBytes(h.Set)
	}
	out := make([]byte, 0, len(h.Offs))
	for _, off := range h.Offs {
		var b byte
		if int(off) < len(img) {
			b = img[off]
		}
		out = append(out, b)
	}
	return dedupBytes(out)
}

func dedupBytes(bs []byte) []byte {
	var seen [256]bool
	out := make([]byte, 0, len(bs))
	for _, b := range bs {
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	// Keep deterministic ascending order regardless of input order.
	sortBytes(out)
	return out
}

func sortBytes(bs []byte) {
	for i := 1; i < len(bs); i++ {
		for j := i; j > 0 && bs[j] < bs[j-1]; j-- {
			bs[j], bs[j-1] = bs[j-1], bs[j]
		}
	}
}
