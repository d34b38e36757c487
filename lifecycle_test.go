package rwrnlp

import (
	"context"
	"errors"
	"testing"
	"time"
)

// lifecycleForm is one blocking entry point, driven through request.run.
type lifecycleForm struct {
	name  string
	shard int // the shard the attempt parks on when blocked

	// arm readies p for one attempt. With block set it first takes the hold
	// that makes the attempt park; unblock releases that hold. try makes the
	// attempt; finish releases whatever the form still holds once try has
	// returned (granted tells it whether try succeeded).
	arm func(t *testing.T, p *Protocol, block bool) (try func(context.Context) error, unblock func(), finish func(granted bool))

	// fail makes one attempt whose issuance fails inside the lifecycle and
	// returns its error, leaving nothing held.
	fail func(t *testing.T, p *Protocol) error

	// reject, where the form has one, makes an attempt the RSM refuses on its
	// arguments — unlike fail, with the shard otherwise healthy, so the
	// refusal itself must leave the accounting balanced.
	reject func(p *Protocol) error
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// breakClock makes every RSM invocation on s fail with core.ErrTimeRegressed
// until restore is called — the only way to make a validated plain issuance
// fail.
func breakClock(s *shard) (restore func()) {
	s.mu.Lock()
	saved := s.clock
	s.clock = -1 << 20
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		s.clock = saved
		s.mu.Unlock()
	}
}

// holdToken takes a plain hold and returns its release (which may run off
// the test goroutine, so it reports with Error, not Fatal).
func holdToken(t *testing.T, p *Protocol, read, write []ResourceID) func() {
	t.Helper()
	tok, err := p.Acquire(bg, read, write)
	must(t, err)
	return func() {
		if err := p.Release(tok); err != nil {
			t.Error(err)
		}
	}
}

// The six blocking entry points over components {0,1} and {2,3}.
var lifecycleForms = []lifecycleForm{
	{
		name: "Acquire/single-component",
		arm: func(t *testing.T, p *Protocol, block bool) (func(context.Context) error, func(), func(bool)) {
			var unblock func()
			if block {
				unblock = holdToken(t, p, nil, []ResourceID{0})
			}
			var tok Token
			try := func(ctx context.Context) (err error) {
				tok, err = p.Write(ctx, 0, 1)
				return err
			}
			return try, unblock, func(granted bool) {
				if granted {
					must(t, p.Release(tok))
				}
			}
		},
		fail: func(t *testing.T, p *Protocol) error {
			// An RSM-resident pair on 1 makes the write miss the fast path.
			u, err := p.AcquireUpgradeable(bg, 1)
			must(t, err)
			restore := breakClock(p.shards[0])
			_, err = p.Write(bg, 0)
			restore()
			must(t, u.ReleaseRead())
			return err
		},
	},
	{
		name:  "Acquire/cross-component",
		shard: 1,
		arm: func(t *testing.T, p *Protocol, block bool) (func(context.Context) error, func(), func(bool)) {
			var unblock func()
			if block {
				unblock = holdToken(t, p, nil, []ResourceID{2})
			}
			var tok Token
			try := func(ctx context.Context) (err error) {
				// The {1} slice is granted first; the {2} slice parks, so a
				// cancellation must also roll the first slice back.
				tok, err = p.Acquire(ctx, nil, []ResourceID{1, 2})
				return err
			}
			return try, unblock, func(granted bool) {
				if granted {
					must(t, p.Release(tok))
				}
			}
		},
		fail: func(t *testing.T, p *Protocol) error {
			restore := breakClock(p.shards[1])
			_, err := p.Acquire(bg, nil, []ResourceID{1, 2})
			restore()
			return err
		},
	},
	{
		name: "AcquireIncremental",
		arm: func(t *testing.T, p *Protocol, block bool) (func(context.Context) error, func(), func(bool)) {
			var unblock func()
			if block {
				unblock = holdToken(t, p, nil, []ResourceID{0})
			}
			var inc *Incremental
			try := func(ctx context.Context) (err error) {
				inc, err = p.AcquireIncremental(ctx, nil, []ResourceID{0, 1}, nil, []ResourceID{0})
				return err
			}
			return try, unblock, func(granted bool) {
				if granted {
					must(t, inc.Release())
				}
			}
		},
		fail: func(t *testing.T, p *Protocol) error {
			restore := breakClock(p.shards[0])
			_, err := p.AcquireIncremental(bg, nil, []ResourceID{0, 1}, nil, []ResourceID{0})
			restore()
			return err
		},
		reject: func(p *Protocol) error {
			_, err := p.AcquireIncremental(bg, nil, []ResourceID{0}, nil, []ResourceID{1})
			return err
		},
	},
	{
		name: "Incremental.Acquire",
		arm: func(t *testing.T, p *Protocol, block bool) (func(context.Context) error, func(), func(bool)) {
			var unblock func()
			if block {
				unblock = holdToken(t, p, []ResourceID{1}, nil)
			}
			inc, err := p.AcquireIncremental(bg, nil, []ResourceID{0, 1}, nil, []ResourceID{0})
			must(t, err)
			try := func(ctx context.Context) error { return inc.Acquire(ctx, 1) }
			// A withdrawn ask leaves the handle valid and 0 held.
			return try, unblock, func(bool) { must(t, inc.Release()) }
		},
		fail: func(t *testing.T, p *Protocol) error {
			inc, err := p.AcquireIncremental(bg, nil, []ResourceID{0}, nil, []ResourceID{0})
			must(t, err)
			err = inc.Acquire(bg, 1) // outside the potential set
			must(t, inc.Release())
			return err
		},
	},
	{
		name: "AcquireUpgradeable",
		arm: func(t *testing.T, p *Protocol, block bool) (func(context.Context) error, func(), func(bool)) {
			var unblock func()
			if block {
				unblock = holdToken(t, p, nil, []ResourceID{0})
			}
			var u *Upgradeable
			try := func(ctx context.Context) (err error) {
				u, err = p.AcquireUpgradeable(ctx, 0, 1)
				return err
			}
			return try, unblock, func(granted bool) {
				switch {
				case !granted:
				case u.Reading():
					must(t, u.ReleaseRead())
				default:
					must(t, u.Release())
				}
			}
		},
		fail: func(t *testing.T, p *Protocol) error {
			restore := breakClock(p.shards[0])
			_, err := p.AcquireUpgradeable(bg, 0, 1)
			restore()
			return err
		},
	},
	{
		name: "Upgrade",
		arm: func(t *testing.T, p *Protocol, block bool) (func(context.Context) error, func(), func(bool)) {
			var unblock func()
			if block {
				unblock = holdToken(t, p, []ResourceID{0}, nil)
			}
			u, err := p.AcquireUpgradeable(bg, 0)
			must(t, err)
			if !u.Reading() {
				t.Fatal("upgradeable read half did not share with the reader")
			}
			// A withdrawn upgrade ends the pair: nothing is left to release.
			return u.Upgrade, unblock, func(granted bool) {
				if granted {
					must(t, u.Release())
				}
			}
		},
		fail: func(t *testing.T, p *Protocol) error {
			u, err := p.AcquireUpgradeable(bg, 0)
			must(t, err)
			must(t, u.Upgrade(bg))
			err = u.Upgrade(bg) // no longer in its read phase
			must(t, u.Release())
			return err
		},
	},
}

// awaitParked waits until a request is physically parked on s.
func awaitParked(t *testing.T, s *shard) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		parked := false
		s.mu.Lock()
		for _, w := range s.waiters {
			parked = parked || w.state.Load() == parkParked
		}
		s.mu.Unlock()
		if parked {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("attempt never parked")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// checkBalanced asserts that a quiescent protocol is back in its initial
// lifecycle state: every writer gate open, no issuance intent announced, no
// waiter registered, every issued request retired — and, the operational
// proof that the gates really reopened, that the next uncontended read and
// write on every component are fast-path hits.
func checkBalanced(t *testing.T, p *Protocol) {
	t.Helper()
	for i, s := range p.shards {
		if v := s.fastWriters.Load(); v != 0 {
			t.Errorf("shard %d: fastWriters = %d, want 0", i, v)
		}
		if v := s.rsmIntent.Load(); v != 0 {
			t.Errorf("shard %d: rsmIntent = %d, want 0", i, v)
		}
		s.mu.Lock()
		left := len(s.waiters)
		s.mu.Unlock()
		if left != 0 {
			t.Errorf("shard %d: %d waiters still registered", i, left)
		}
	}
	if st := p.Stats(); st.Issued != st.Completed+st.Canceled {
		t.Errorf("issued %d != completed %d + canceled %d", st.Issued, st.Completed, st.Canceled)
	}
	for c := range p.shards {
		r, err := p.Read(bg, ResourceID(2*c))
		must(t, err)
		if r.fastSeq == 0 {
			t.Errorf("component %d: uncontended read missed the fast path", c)
		}
		must(t, p.Release(r))
		w, err := p.Write(bg, ResourceID(2*c))
		must(t, err)
		if w.fastW == 0 {
			t.Errorf("component %d: uncontended write missed the fast path", c)
		}
		must(t, p.Release(w))
	}
}

// TestRequestLifecycleBalance drives every blocking entry point through every
// exit path of the shared request lifecycle — granted at once, granted after
// parking, cancelled while parked, cancellation racing the grant, a failed
// issuance, and (for the form that validates one) a rejected ask — with both fast-path planes on and WithSelfCheck, and
// after each asserts the gate, intent and waiter accounting is back to zero.
func TestRequestLifecycleBalance(t *testing.T) {
	races := 200
	if testing.Short() {
		races = 20
	}
	for _, f := range lifecycleForms {
		f := f
		// Each attempt runs on a fresh protocol, so the revocation hysteresis
		// never turns a fast plane off under the repeated conflict misses.
		fresh := func(t *testing.T) *Protocol {
			return newTestProtocol(t, 4, opts(WithPlaceholders(), WithSelfCheck()),
				[]ResourceID{0, 1}, []ResourceID{2, 3})
		}
		// blocked arms a parked attempt and returns its pending result.
		blocked := func(t *testing.T, p *Protocol, ctx context.Context) (result chan error, unblock func(), finish func(bool)) {
			try, unblock, finish := f.arm(t, p, true)
			result = make(chan error, 1)
			go func() { result <- try(ctx) }()
			awaitParked(t, p.shards[f.shard])
			return result, unblock, finish
		}

		t.Run(f.name+"/granted-immediately", func(t *testing.T) {
			p := fresh(t)
			try, _, finish := f.arm(t, p, false)
			must(t, try(bg))
			finish(true)
			checkBalanced(t, p)
		})
		t.Run(f.name+"/granted-after-park", func(t *testing.T) {
			p := fresh(t)
			result, unblock, finish := blocked(t, p, bg)
			unblock()
			must(t, <-result)
			finish(true)
			checkBalanced(t, p)
		})
		t.Run(f.name+"/cancelled-while-parked", func(t *testing.T) {
			p := fresh(t)
			ctx, cancel := context.WithCancel(bg)
			result, unblock, finish := blocked(t, p, ctx)
			cancel()
			if err := <-result; !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled attempt: err = %v, want context.Canceled", err)
			}
			unblock()
			finish(false)
			checkBalanced(t, p)
		})
		t.Run(f.name+"/cancel-vs-signal", func(t *testing.T) {
			grants := 0
			for i := 0; i < races; i++ {
				p := fresh(t)
				ctx, cancel := context.WithCancel(bg)
				result, unblock, finish := blocked(t, p, ctx)
				// Release the blocker and cancel the context from two
				// goroutines at once, alternating which is started first.
				first, second := unblock, func() { cancel() }
				if i%2 == 1 {
					first, second = second, first
				}
				done := make(chan struct{})
				go func() { first(); close(done) }()
				second()
				<-done
				err := <-result
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("iteration %d: err = %v, want nil or context.Canceled", i, err)
				}
				if err == nil {
					grants++
				}
				finish(err == nil)
				checkBalanced(t, p)
				if t.Failed() {
					t.Fatalf("unbalanced after iteration %d (granted=%v)", i, err == nil)
				}
			}
			t.Logf("%d grants, %d cancellations", grants, races-grants)
		})
		if f.reject != nil {
			t.Run(f.name+"/rejected-ask", func(t *testing.T) {
				p := fresh(t)
				if err := f.reject(p); err == nil {
					t.Fatal("ask outside the potential set accepted")
				}
				checkBalanced(t, p)
			})
		}
		t.Run(f.name+"/issue-error", func(t *testing.T) {
			p := fresh(t)
			err := f.fail(t, p)
			if err == nil || errors.Is(err, context.Canceled) {
				t.Fatalf("failed issuance: err = %v, want an issuance error", err)
			}
			checkBalanced(t, p)
		})
	}
}
