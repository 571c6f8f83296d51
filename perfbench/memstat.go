package main

import (
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"time"
)

// Runtime metrics the benchmark reads.
const (
	mTotal    = "/memory/classes/total:bytes"
	mReleased = "/memory/classes/heap/released:bytes"
	mHeapObj  = "/memory/classes/heap/objects:bytes"
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	mAllCPU   = "/cpu/classes/total:cpu-seconds"
)

// settleHeap collects garbage and returns the freed pages to the OS, so
// every window starts from the same heap and host-memory state, whatever
// set-up left mapped.
func settleHeap() { debug.FreeOSMemory() }

// memSampler tracks the peak of the memory the Go runtime holds from the
// OS (mapped minus released) and the peak live heap, sampling every few
// milliseconds between start and stop, and the GC share of CPU time
// over the same interval.
type memSampler struct {
	stopCh chan struct{}
	done   chan struct{}

	mu                 sync.Mutex
	peakHeld, peakHeap uint64
	gc0, cpu0          float64
}

func readMetrics() (held, heap uint64, gc, cpu float64) {
	s := []metrics.Sample{{Name: mTotal}, {Name: mReleased}, {Name: mHeapObj}, {Name: mGCCPU}, {Name: mAllCPU}}
	metrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64(), s[2].Value.Uint64(),
		s[3].Value.Float64(), s[4].Value.Float64()
}

func startMemSampler() *memSampler {
	m := &memSampler{stopCh: make(chan struct{}), done: make(chan struct{})}
	held, heap, gc, cpu := readMetrics()
	m.peakHeld, m.peakHeap, m.gc0, m.cpu0 = held, heap, gc, cpu
	go func() {
		defer close(m.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.stopCh:
				return
			case <-tick.C:
				m.sample()
			}
		}
	}()
	return m
}

func (m *memSampler) sample() (gc, cpu float64) {
	held, heap, gc, cpu := readMetrics()
	m.mu.Lock()
	if held > m.peakHeld {
		m.peakHeld = held
	}
	if heap > m.peakHeap {
		m.peakHeap = heap
	}
	m.mu.Unlock()
	return gc, cpu
}

// stop ends sampling and returns the peak held memory and peak live heap
// in MiB and the GC share of CPU time in percent. The runtime's CPU
// classes are estimates refreshed at each GC, so short windows may read
// a GC share of 0.
func (m *memSampler) stop() (heldMiB, heapMiB, gcPct float64) {
	close(m.stopCh)
	<-m.done
	gc, cpu := m.sample()
	if d := cpu - m.cpu0; d > 0 {
		gcPct = 100 * (gc - m.gc0) / d
	}
	const mib = 1 << 20
	return float64(m.peakHeld) / mib, float64(m.peakHeap) / mib, gcPct
}
