package main

import (
	"runtime"
	"runtime/metrics"
	"time"
)

const liveHeapMetric = "/gc/heap/live:bytes"

// readLiveHeap returns the heap marked live by the most recent GC.
func readLiveHeap() uint64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// settleGoroutines waits up to limit for the goroutine count to fall to
// baseline and returns how many goroutines remain above it.
func settleGoroutines(baseline int, limit time.Duration) int {
	deadline := time.Now().Add(limit)
	for {
		n := runtime.NumGoroutine() - baseline
		if n <= 0 {
			return 0
		}
		if time.Now().After(deadline) {
			return n
		}
		time.Sleep(20 * time.Millisecond)
	}
}
