package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// The representation tests: a ResourceSet is inline up to ID 127 and spills
// beyond, and no method may tell the difference. Every method is checked
// against a map model over universes whose widths straddle the word and
// spill boundaries, with inline and spilled operands in both argument orders.

type refSet map[ResourceID]bool

func (m refSet) ids() []ResourceID {
	ids := make([]ResourceID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (m refSet) String() string {
	var parts []string
	for _, id := range m.ids() {
		parts = append(parts, fmt.Sprint(int(id)))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

func (m refSet) clone() refSet {
	c := refSet{}
	for id := range m {
		c[id] = true
	}
	return c
}

// randomPair draws a set over [0, width) and its model. Boundary IDs are
// favoured so that the last bit of a word and the first of the next are hit
// far more often than uniform sampling over 300 IDs would.
func randomPair(rng *rand.Rand, width int) (ResourceSet, refSet) {
	var s ResourceSet
	m := refSet{}
	edges := []int{0, 62, 63, 64, 65, 126, 127, 128, 129, 191, 192, 299}
	for n := rng.Intn(8); n > 0; n-- {
		id := rng.Intn(width)
		if e := edges[rng.Intn(len(edges))]; rng.Intn(2) == 0 && e < width {
			id = e
		}
		s.Add(ResourceID(id))
		m[ResourceID(id)] = true
	}
	return s, m
}

// agrees checks every read-only method of s against the model.
func agrees(t *testing.T, ctx string, s ResourceSet, m refSet, width int) {
	t.Helper()
	if s.Len() != len(m) || s.Empty() != (len(m) == 0) {
		t.Fatalf("%s: Len/Empty = %d/%v, model has %d", ctx, s.Len(), s.Empty(), len(m))
	}
	for id := -1; id <= width+64; id++ {
		if s.Has(ResourceID(id)) != m[ResourceID(id)] {
			t.Fatalf("%s: Has(%d) = %v, model says %v", ctx, id, !m[ResourceID(id)], m[ResourceID(id)])
		}
	}
	want := m.ids()
	if got := s.IDs(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: IDs = %v, want %v", ctx, got, want)
	}
	var each []ResourceID
	s.ForEach(func(id ResourceID) bool { each = append(each, id); return true })
	if fmt.Sprint(each) != fmt.Sprint(want) {
		t.Fatalf("%s: ForEach visited %v, want %v", ctx, each, want)
	}
	if len(want) > 1 { // early stop after the first ID, wherever it lives
		n := 0
		s.ForEach(func(ResourceID) bool { n++; return false })
		if n != 1 {
			t.Fatalf("%s: ForEach visited %d IDs after being told to stop", ctx, n)
		}
	}
	if s.String() != m.String() {
		t.Fatalf("%s: String = %s, want %s", ctx, s, m)
	}
}

func TestResourceSetRepresentation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	widths := []int{63, 64, 65, 127, 128, 129, 300}
	for iter := 0; iter < 400; iter++ {
		// Operands of independent widths: inline × inline, inline × spilled,
		// spilled × inline and spilled × spilled all occur.
		wa, wb := widths[rng.Intn(len(widths))], widths[rng.Intn(len(widths))]
		a, ma := randomPair(rng, wa)
		b, mb := randomPair(rng, wb)
		ctx := fmt.Sprintf("iter %d a=%s (width %d) b=%s (width %d)", iter, ma, wa, mb, wb)
		width := max(wa, wb)
		agrees(t, ctx+": a", a, ma, width)
		agrees(t, ctx+": b", b, mb, width)

		inter, sub, contains := refSet{}, ma.clone(), true
		for id := range ma {
			if mb[id] {
				inter[id] = true
				delete(sub, id)
			}
		}
		for id := range mb {
			contains = contains && ma[id]
		}
		uni := ma.clone()
		for id := range mb {
			uni[id] = true
		}

		if a.Intersects(b) != (len(inter) > 0) || b.Intersects(a) != (len(inter) > 0) {
			t.Fatalf("%s: Intersects = %v/%v, model intersection %s", ctx, a.Intersects(b), b.Intersects(a), inter)
		}
		if a.ContainsAll(b) != contains {
			t.Fatalf("%s: a.ContainsAll(b) = %v, want %v", ctx, !contains, contains)
		}
		same := len(ma) == len(mb) && contains
		if a.Equal(b) != same || b.Equal(a) != same {
			t.Fatalf("%s: Equal = %v/%v, want %v", ctx, a.Equal(b), b.Equal(a), same)
		}

		// Union and the three in-place operators, each on a clone so that a
		// and b are seen unchanged by the next one.
		agrees(t, ctx+": Union(a,b)", Union(a, b), uni, width)
		agrees(t, ctx+": Union(b,a)", Union(b, a), uni, width)
		c := a.Clone()
		c.UnionWith(b)
		agrees(t, ctx+": a.UnionWith(b)", c, uni, width)
		c = a.Clone()
		c.IntersectWith(b)
		agrees(t, ctx+": a.IntersectWith(b)", c, inter, width)
		c = a.Clone()
		c.SubtractWith(b)
		agrees(t, ctx+": a.SubtractWith(b)", c, sub, width)
		agrees(t, ctx+": a after the operators", a, ma, width)
		agrees(t, ctx+": b after the operators", b, mb, width)

		// Clone independence, both ways: mutate the source, then the clone.
		c, mc := a.Clone(), ma.clone()
		for id := range ma {
			a.Remove(id)
		}
		a.Add(ResourceID(width + 1))
		agrees(t, ctx+": clone after its source changed", c, mc, width)
		for _, id := range mc.ids() {
			c.Remove(id)
			delete(mc, id)
			agrees(t, ctx+": clone after Remove", c, mc, width)
		}
		if !c.Empty() || !c.Equal(ResourceSet{}) || !(ResourceSet{}).Equal(c) {
			t.Fatalf("%s: emptied set %s is not Equal to the zero value", ctx, c)
		}
		agrees(t, ctx+": source after its clone changed", a, refSet{ResourceID(width + 1): true}, width+2)
	}
}

func TestResourceSetZeroValue(t *testing.T) {
	var z ResourceSet
	agrees(t, "zero value", z, refSet{}, 300)
	agrees(t, "clone of the zero value", z.Clone(), refSet{}, 300)
	wide := NewResourceSet(5, 200)
	if z.Intersects(wide) || wide.Intersects(z) || z.ContainsAll(wide) || !wide.ContainsAll(z) || !z.ContainsAll(z) {
		t.Fatal("zero value disagrees with the empty set against a spilled operand")
	}
	z.IntersectWith(wide)
	z.SubtractWith(wide)
	z.Remove(200)
	agrees(t, "zero value after no-op operators", z, refSet{}, 300)
	z.UnionWith(wide)
	agrees(t, "zero value grown by UnionWith", z, refSet{5: true, 200: true}, 300)
	wide.Remove(5)
	wide.Remove(200)
	agrees(t, "grown set after its operand changed", z, refSet{5: true, 200: true}, 300)
	var y ResourceSet
	y.Add(299) // straight into the spill
	agrees(t, "zero value grown by Add", y, refSet{299: true}, 300)
}
