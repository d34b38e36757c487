package rwrnlp

import (
	"testing"

	"github.com/rtsync/rwrnlp/internal/allocguard"
)

// The allocation guards of the runtime lock: an uncontended acquire/release
// pair allocates nothing on either path — not for the component split, the
// combining op, the request record in the RSM below, or an event nobody
// observes. (internal/core has the guards of the RSM alone.) The footprints
// are slices the caller already owns: a variadic literal is the caller's
// allocation, not the lock's.

func allocGuardPair(t *testing.T, p *Protocol, write bool) func() {
	ids := []ResourceID{0, 1}
	return func() {
		var tok Token
		var err error
		if write {
			tok, err = p.Write(bg, ids...)
		} else {
			tok, err = p.Read(bg, ids...)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Release(tok); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAllocsSlowPathPair(t *testing.T) {
	for _, write := range []bool{false, true} {
		p := newTestProtocol(t, 4, opts(WithPlaceholders(), WithFastPath(FastPathConfig{})),
			[]ResourceID{0, 1}, []ResourceID{2, 3})
		allocguard.Require(t, "slow-path pair", allocGuardPair(t, p, write))
		if st := p.Stats(); st.Issued == 0 {
			t.Fatal("the pairs never reached the RSM")
		}
	}
}

func TestAllocsFastPathPair(t *testing.T) {
	for _, write := range []bool{false, true} {
		p := newTestProtocol(t, 4, opts(WithPlaceholders()), []ResourceID{0, 1}, []ResourceID{2, 3})
		allocguard.Require(t, "fast-path pair", allocGuardPair(t, p, write))
		if st := p.Stats(); st.Issued != 0 {
			t.Fatalf("%d of the pairs missed the fast path", st.Issued)
		}
	}
}
