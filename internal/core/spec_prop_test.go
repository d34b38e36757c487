package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property tests (testing/quick) for the read-sharing closure — the
// correctness keystone identified by the E13 finding (see SpecBuilder.Build).

// genBuilder derives a builder with random declarations from raw bytes.
func genBuilder(q int, decl []uint8) *SpecBuilder {
	b := NewSpecBuilder(q)
	for i := 0; i+2 < len(decl); i += 3 {
		ids := []ResourceID{
			ResourceID(int(decl[i]) % q),
			ResourceID(int(decl[i+1]) % q),
			ResourceID(int(decl[i+2]) % q),
		}
		if err := b.DeclareRequest(ids, nil); err != nil {
			panic(err)
		}
	}
	return b
}

// Closure property: b ∈ S(a) ⇒ S(b) ⊆ S(a).
func TestSpecClosureProperty(t *testing.T) {
	f := func(decl []uint8) bool {
		s := genBuilder(8, decl).Build()
		for a := 0; a < 8; a++ {
			ok := true
			s.ReadSet(ResourceID(a)).ForEach(func(bID ResourceID) bool {
				if !s.ReadSet(ResourceID(a)).ContainsAll(s.ReadSet(bID)) {
					ok = false
					return false
				}
				return true
			})
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

// Idempotence: building twice (declaring the closed sets again) changes
// nothing.
func TestSpecClosureIdempotent(t *testing.T) {
	f := func(decl []uint8) bool {
		s1 := genBuilder(8, decl).Build()
		b2 := NewSpecBuilder(8)
		for a := 0; a < 8; a++ {
			if err := b2.DeclareRequest(s1.ReadSet(ResourceID(a)).IDs(), nil); err != nil {
				panic(err)
			}
		}
		s2 := b2.Build()
		for a := 0; a < 8; a++ {
			if !s1.ReadSet(ResourceID(a)).Equal(s2.ReadSet(ResourceID(a))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Fatal(err)
	}
}

// Monotonicity: declaring more never shrinks a read set.
func TestSpecDeclareMonotone(t *testing.T) {
	f := func(decl []uint8, extra []uint8) bool {
		b := genBuilder(8, decl)
		before := b.Build()
		for i := 0; i+1 < len(extra); i += 2 {
			ids := []ResourceID{ResourceID(int(extra[i]) % 8), ResourceID(int(extra[i+1]) % 8)}
			if err := b.DeclareRequest(ids, nil); err != nil {
				panic(err)
			}
		}
		after := b.Build()
		for a := 0; a < 8; a++ {
			if !after.ReadSet(ResourceID(a)).ContainsAll(before.ReadSet(ResourceID(a))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}

// Expansion is self-covering: D = Expand(N) satisfies Expand(D) = D — the
// property the Lemma 6 proof needs (every extra's read set is already in D).
func TestSpecExpandSelfCovering(t *testing.T) {
	f := func(decl []uint8, reqRaw []uint8) bool {
		s := genBuilder(8, decl).Build()
		var n ResourceSet
		for _, r := range reqRaw {
			n.Add(ResourceID(int(r) % 8))
		}
		if n.Empty() {
			return true
		}
		d := s.Expand(n)
		return s.Expand(d).Equal(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(10))}); err != nil {
		t.Fatal(err)
	}
}

// fuzzMaxScript bounds a FuzzRSMInvocations script: the 7 spec bytes plus 96
// three-byte operations.
const fuzzMaxScript = 7 + 3*96

// FuzzRSMInvocations is a native fuzz target driving the RSM with an
// arbitrary byte-encoded invocation script; the invariant checker validates
// every step. Run with `go test -fuzz=FuzzRSMInvocations ./internal/core`
// for continuous fuzzing; the seed corpus runs as a normal test.
func FuzzRSMInvocations(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0, 0, 0, 255, 255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 2 {
			return
		}
		// The checker runs after every step and a step's cost grows with the
		// square of the live requests, so an unbounded script can take tens
		// of seconds and be reported as a hang (512 uncompleted reads: 6.8 s).
		// fuzzMaxScript keeps the worst input near 50 ms.
		if len(script) > fuzzMaxScript {
			script = script[:fuzzMaxScript]
		}
		q := int(script[0])%6 + 2
		b := NewSpecBuilder(q)
		// First few bytes declare read groups.
		i := 1
		for ; i+1 < len(script) && i < 7; i += 2 {
			_ = b.DeclareReadGroup(ResourceID(int(script[i])%q), ResourceID(int(script[i+1])%q))
		}
		m := NewRSM(b.Build(), Options{Placeholders: script[0]%2 == 0})
		ck := newChecker(t, m, false)
		var live []ReqID
		now := Time(0)
		for ; i+2 < len(script); i += 3 {
			now++
			op := script[i] % 4
			r0 := ResourceID(int(script[i+1]) % q)
			r1 := ResourceID(int(script[i+2]) % q)
			switch op {
			case 0: // read
				id, err := m.Issue(now, []ResourceID{r0}, nil, nil)
				if err == nil {
					live = append(live, id)
				}
			case 1: // write
				id, err := m.Issue(now, nil, []ResourceID{r0, r1}, nil)
				if err == nil {
					live = append(live, id)
				}
			case 2: // mixed
				id, err := m.Issue(now, []ResourceID{r0}, []ResourceID{r1}, nil)
				if err == nil {
					live = append(live, id)
				}
			case 3: // complete something satisfied
				for j, id := range live {
					st, err := m.State(id)
					if err != nil {
						t.Fatal(err)
					}
					if st == StateSatisfied {
						if err := m.Complete(now, id); err != nil {
							t.Fatal(err)
						}
						live = append(live[:j], live[j+1:]...)
						break
					}
				}
			}
			ck.check("fuzz")
		}
		// Drain. One completion per round, so the round budget must cover
		// every live request: only a round with no satisfiable request is a
		// genuine liveness failure.
		budget := len(live) + 16
		for rounds := 0; rounds < budget && len(live) > 0; rounds++ {
			now++
			progressed := false
			for j, id := range live {
				st, err := m.State(id)
				if err != nil {
					t.Fatal(err)
				}
				if st == StateSatisfied {
					if err := m.Complete(now, id); err != nil {
						t.Fatal(err)
					}
					live = append(live[:j], live[j+1:]...)
					progressed = true
					break
				}
			}
			ck.check("fuzz-drain")
			if !progressed {
				break
			}
		}
		if len(live) != 0 {
			t.Fatalf("liveness: %d requests stuck", len(live))
		}
	})
}
