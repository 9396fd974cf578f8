package cover

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"schemamap/internal/data"
)

// A panic in one item on a pool worker reaches runWorkers' caller once
// every worker has stopped, and no worker goroutine is left behind.
func TestRunWorkersPanicReachesCaller(t *testing.T) {
	J := data.NewInstance()
	J.Add(data.NewTuple("t", "a"))
	jidx := IndexJ(J)
	before := runtime.NumGoroutine()
	var ran atomic.Int64
	got := func() (r any) {
		defer func() { r = recover() }()
		runWorkers(jidx, 50, 4, func(_ *analyzeWorker, i int) {
			if i == 3 {
				panic("item 3 failed")
			}
			ran.Add(1)
		})
		return nil
	}()
	if got != "item 3 failed" {
		t.Fatalf("recovered %v, want the item's panic", got)
	}
	if n := ran.Load(); n > 49 {
		t.Fatalf("%d items ran, want at most 49", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, want ≤ %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
