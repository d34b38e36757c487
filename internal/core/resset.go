package core

import (
	"fmt"
	"math/bits"
	"strings"
)

// ResourceID identifies one of the q shared resources ℓ_1, …, ℓ_q.
// IDs are dense and zero-based: valid IDs are 0 … q-1.
type ResourceID int

// inlineWords is the number of bit-set words a ResourceSet holds in the
// value itself: resources 0 … 64·inlineWords−1 never touch the heap.
const inlineWords = 2

// ResourceSet is a bit set of resource IDs. The zero value is an empty set
// that can grow on demand.
//
// ResourceSet values are used on the hot path of the RSM (conflict tests,
// entitlement checks) and copied into every Event, so the first 128 IDs live
// inline — a set over a system of at most 128 resources is a plain value:
// copying it is a snapshot and no operation on it allocates. IDs from 128 up
// spill into a slice of further words, absent words reading as zero; a copy
// of such a set shares the spill, so use Clone for an independent one.
type ResourceSet struct {
	lo    [inlineWords]uint64
	spill []uint64 // spill[i] holds IDs 64·(inlineWords+i) …; nil until one is added
}

// NewResourceSet returns a set containing exactly the given IDs.
func NewResourceSet(ids ...ResourceID) ResourceSet {
	var s ResourceSet
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// Add inserts id into the set. Negative IDs panic: they indicate a
// programming error rather than a recoverable condition.
func (s *ResourceSet) Add(id ResourceID) {
	if id < 0 {
		panic(fmt.Sprintf("core: negative ResourceID %d", id))
	}
	w, bit := int(id)/64, uint64(1)<<(uint(id)%64)
	if w < inlineWords {
		s.lo[w] |= bit
		return
	}
	w -= inlineWords
	for len(s.spill) <= w {
		s.spill = append(s.spill, 0)
	}
	s.spill[w] |= bit
}

// Remove deletes id from the set; removing an absent ID is a no-op.
func (s *ResourceSet) Remove(id ResourceID) {
	if id < 0 {
		return
	}
	w, bit := int(id)/64, uint64(1)<<(uint(id)%64)
	if w < inlineWords {
		s.lo[w] &^= bit
	} else if w -= inlineWords; w < len(s.spill) {
		s.spill[w] &^= bit
	}
}

// Has reports whether id is in the set.
func (s ResourceSet) Has(id ResourceID) bool {
	if id < 0 {
		return false
	}
	w, bit := int(id)/64, uint64(1)<<(uint(id)%64)
	if w < inlineWords {
		return s.lo[w]&bit != 0
	}
	w -= inlineWords
	return w < len(s.spill) && s.spill[w]&bit != 0
}

// Len returns the number of IDs in the set.
func (s ResourceSet) Len() int {
	n := 0
	for _, w := range s.lo {
		n += bits.OnesCount64(w)
	}
	for _, w := range s.spill {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set contains no IDs.
func (s ResourceSet) Empty() bool {
	for _, w := range s.lo {
		if w != 0 {
			return false
		}
	}
	for _, w := range s.spill {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the set. For a set without spilled
// words that is the value itself.
func (s ResourceSet) Clone() ResourceSet {
	if len(s.spill) != 0 {
		s.spill = append([]uint64(nil), s.spill...)
	}
	return s
}

// UnionWith adds every ID of t to s.
func (s *ResourceSet) UnionWith(t ResourceSet) {
	for i, w := range t.lo {
		s.lo[i] |= w
	}
	for len(s.spill) < len(t.spill) {
		s.spill = append(s.spill, 0)
	}
	for i, w := range t.spill {
		s.spill[i] |= w
	}
}

// SubtractWith removes every ID of t from s.
func (s *ResourceSet) SubtractWith(t ResourceSet) {
	for i, w := range t.lo {
		s.lo[i] &^= w
	}
	for i := 0; i < len(s.spill) && i < len(t.spill); i++ {
		s.spill[i] &^= t.spill[i]
	}
}

// IntersectWith removes from s every ID not in t.
func (s *ResourceSet) IntersectWith(t ResourceSet) {
	for i, w := range t.lo {
		s.lo[i] &= w
	}
	for i := range s.spill {
		if i < len(t.spill) {
			s.spill[i] &= t.spill[i]
		} else {
			s.spill[i] = 0
		}
	}
}

// Union returns s ∪ t as a new set.
func Union(s, t ResourceSet) ResourceSet {
	u := s.Clone()
	u.UnionWith(t)
	return u
}

// Intersects reports whether s ∩ t is non-empty.
func (s ResourceSet) Intersects(t ResourceSet) bool {
	for i, w := range s.lo {
		if w&t.lo[i] != 0 {
			return true
		}
	}
	for i := 0; i < len(s.spill) && i < len(t.spill); i++ {
		if s.spill[i]&t.spill[i] != 0 {
			return true
		}
	}
	return false
}

// ContainsAll reports whether every ID of t is also in s.
func (s ResourceSet) ContainsAll(t ResourceSet) bool {
	for i, w := range t.lo {
		if w&^s.lo[i] != 0 {
			return false
		}
	}
	for i, w := range t.spill {
		var sw uint64
		if i < len(s.spill) {
			sw = s.spill[i]
		}
		if w&^sw != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain exactly the same IDs.
func (s ResourceSet) Equal(t ResourceSet) bool {
	if s.lo != t.lo {
		return false
	}
	long, short := s.spill, t.spill
	if len(long) < len(short) {
		long, short = short, long
	}
	for i, w := range long {
		var o uint64
		if i < len(short) {
			o = short[i]
		}
		if w != o {
			return false
		}
	}
	return true
}

// ForEach calls f for every ID in the set in ascending order. If f returns
// false, iteration stops early.
func (s ResourceSet) ForEach(f func(ResourceID) bool) {
	for i, w := range s.lo {
		if !eachBit(i, w, f) {
			return
		}
	}
	for i, w := range s.spill {
		if !eachBit(inlineWords+i, w, f) {
			return
		}
	}
}

// eachBit calls f for the IDs word holds as the word-th word of a set and
// reports whether f asked for more.
func eachBit(word int, w uint64, f func(ResourceID) bool) bool {
	for w != 0 {
		b := bits.TrailingZeros64(w)
		if !f(ResourceID(word*64 + b)) {
			return false
		}
		w &^= 1 << uint(b)
	}
	return true
}

// IDs returns the set's members in ascending order.
func (s ResourceSet) IDs() []ResourceID {
	ids := make([]ResourceID, 0, s.Len())
	s.ForEach(func(id ResourceID) bool {
		ids = append(ids, id)
		return true
	})
	return ids
}

// String renders the set as "{0, 3, 7}".
func (s ResourceSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(id ResourceID) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", id)
		return true
	})
	b.WriteByte('}')
	return b.String()
}
