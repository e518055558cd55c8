package transport

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"hovercraft/internal/core"
	"hovercraft/internal/obs"
)

// TestApplyQueueRecordedOncePerOp checks that every executed operation
// leaves exactly one apply_queue sample (the engine's commit → execution
// start) and one service sample. Read-write entries execute on every
// replica, so after N writes each node's counts must equal N — twice N
// would mean a second stage is recording into apply_queue, which skews
// tel.apply_queue_* and the admission controller's signal.
func TestApplyQueueRecordedOncePerOp(t *testing.T) {
	const n = 40
	servers, peers, cleanup := startCluster(t, core.ModeHovercraft, 3)
	defer cleanup()
	cl := dialCluster(t, peers)
	defer cl.Close()
	for i := 1; i <= n; i++ {
		got, err := cl.Call([]byte("incr"), false)
		if err != nil {
			t.Fatalf("incr %d: %v", i, err)
		}
		if string(got) != fmt.Sprint(i) {
			t.Fatalf("incr %d = %q", i, got)
		}
	}
	for i, s := range servers {
		tel := s.Telemetry()
		deadline := time.Now().Add(5 * time.Second)
		for tel.Hist(obs.QService).TotalCount() < n && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		svc, aq := tel.Hist(obs.QService).TotalCount(), tel.Hist(obs.QApplyQueue).TotalCount()
		if svc != n {
			t.Fatalf("server %d executed %d operations, want %d", i, svc, n)
		}
		if aq != svc {
			t.Fatalf("server %d: %d apply_queue samples for %d executed operations", i, aq, svc)
		}
	}
}

// TestServerCloseLeavesNoGoroutines runs a cluster through writes and
// closes it: every goroutine a Server started must be gone afterwards.
func TestServerCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	_, peers, cleanup := startCluster(t, core.ModeHovercraft, 3)
	cl := dialCluster(t, peers)
	for i := 1; i <= 20; i++ {
		if _, err := cl.Call([]byte("incr"), false); err != nil {
			cl.Close()
			cleanup()
			t.Fatalf("incr %d: %v", i, err)
		}
	}
	cl.Close()
	cleanup()
	// Close waits for the server's goroutines; the client's reader exits
	// on its own once its socket is closed. Wait on the count itself.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Close, %d before:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}
