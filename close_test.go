package rwrnlp

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// Regression: Protocol.Close must be idempotent and safe to call
// concurrently — with itself and with in-flight Acquires/Releases. The
// rnlpd service tier calls Close from session-teardown and shutdown paths
// that overlap with live traffic.
func TestCloseIdempotentConcurrentWithAcquires(t *testing.T) {
	b := NewSpecBuilder(4)
	if err := b.DeclareRequest([]ResourceID{0, 1}, nil); err != nil {
		t.Fatal(err)
	}
	p := New(b.Build(), WithPlaceholders(), WithTimeSeries(time.Millisecond, 16), WithSelfCheck())

	const workers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var (
					tok Token
					err error
				)
				if i%2 == 0 {
					tok, err = p.Write(ctx, ResourceID(i%4))
				} else {
					tok, err = p.Read(ctx, 0, 1)
				}
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				if err := p.Release(tok); err != nil {
					t.Errorf("release: %v", err)
					return
				}
			}
		}(i)
	}

	// Hammer Close from several goroutines while the workload runs.
	var cg sync.WaitGroup
	for i := 0; i < 8; i++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for j := 0; j < 10; j++ {
				if err := p.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
			}
		}()
	}
	cg.Wait()

	// The protocol must remain usable after Close.
	tok, err := p.Write(context.Background(), 2)
	if err != nil {
		t.Fatalf("acquire after Close: %v", err)
	}
	if err := p.Release(tok); err != nil {
		t.Fatalf("release after Close: %v", err)
	}

	close(stop)
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatalf("final Close: %v", err)
	}
}

// goroutinesWith counts live goroutines whose stack contains sub.
func goroutinesWith(sub string) int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	count := 0
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, sub) {
			count++
		}
	}
	return count
}

// TestCloseStopsTimeSeries: Protocol.Close must terminate the WithTimeSeries
// capture goroutine — a leaked capture loop would pin the metrics registry
// and tick forever after the protocol is gone.
func TestCloseStopsTimeSeries(t *testing.T) {
	const capture = "(*TimeSeries).Start"
	before := goroutinesWith(capture)

	b := NewSpecBuilder(2)
	p := New(b.Build(), WithPlaceholders(), WithTimeSeries(time.Millisecond, 16))

	deadline := time.Now().Add(3 * time.Second)
	for goroutinesWith(capture) <= before {
		if time.Now().After(deadline) {
			t.Fatal("capture goroutine not running after New with WithTimeSeries")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// Stop waits for the goroutine's wg.Done, which is its last statement but
	// not its last instant: give the runtime a moment to retire it.
	for deadline := time.Now().Add(3 * time.Second); goroutinesWith(capture) > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d capture goroutine(s) still running after Close", goroutinesWith(capture)-before)
		}
		time.Sleep(time.Millisecond)
	}
	// Close is idempotent; the ring stays queryable.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if ts := p.TimeSeries(); ts == nil {
		t.Fatal("TimeSeries nil after Close")
	}
}
