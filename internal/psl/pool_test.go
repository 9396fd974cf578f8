package psl

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// waitGoroutines waits until at most n goroutines are running, so a
// test can check that a pool's workers have exited.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, want ≤ %d", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// A panic in one chunk reaches run's caller once the other workers
// have finished the phase, the pool serves the next phase, and close
// stops every worker.
func TestChunkPoolPanicReachesCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	p := newChunkPool(3)
	var ran atomic.Int64
	got := func() (r any) {
		defer func() { r = recover() }()
		p.run(40, func(c int) {
			if c == 7 {
				panic("chunk 7 failed")
			}
			ran.Add(1)
		})
		return nil
	}()
	if got != "chunk 7 failed" {
		t.Fatalf("recovered %v, want the chunk's panic", got)
	}
	if n := ran.Load(); n != 39 {
		t.Fatalf("%d other chunks ran before the panic was re-raised, want 39", n)
	}
	p.run(10, func(int) { ran.Add(1) })
	if n := ran.Load(); n != 49 {
		t.Fatalf("phase after the panic ran %d chunks, want 10", n-39)
	}
	p.close()
	waitGoroutines(t, before)
}
