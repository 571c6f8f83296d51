package pac

// BenchmarkAllocs is the allocation-regression suite: each sub-benchmark
// drives one hot path in its steady state with b.ReportAllocs(), so
// `go test -bench BenchmarkAllocs` prints the allocs/op that the
// per-package gates (Test*SteadyStateAllocFree) enforce as hard
// ceilings. The sim-run-warm budget is gated by
// internal/sim's TestScratchReuseAcrossRuns; no gate reads this output.

import (
	"testing"

	"github.com/pacsim/pac/internal/arena"
	"github.com/pacsim/pac/internal/coalesce"
	"github.com/pacsim/pac/internal/hmc"
	"github.com/pacsim/pac/internal/mem"
	"github.com/pacsim/pac/internal/mshr"
	"github.com/pacsim/pac/internal/sim"
)

func BenchmarkAllocs(b *testing.B) {
	b.Run("coalesce-event", func(b *testing.B) {
		pool := arena.NewSlicePool[mem.Request](mem.Request{})
		var n uint64
		p := coalesce.NewPassthrough(16, func() uint64 { n++; return n })
		p.UseParentPool(pool)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n++
			r := mem.Request{ID: n, Addr: mem.BlockAddr(uint64(i%4+1), uint(i%64)), Size: mem.BlockSize, Op: mem.OpLoad}
			for !p.Enqueue(r, false) {
				p.Tick()
				for {
					pkt, ok := p.Pop()
					if !ok {
						break
					}
					pool.Put(pkt.Parents)
				}
			}
			p.Tick()
			for {
				pkt, ok := p.Pop()
				if !ok {
					break
				}
				pool.Put(pkt.Parents)
			}
		}
	})

	b.Run("mshr-cycle", func(b *testing.B) {
		f := mshr.New(mshr.Config{Entries: 8, MaxSubentries: 8, Adaptive: true, MaxBlocks: 4})
		var parents [1]mem.Request
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			base := uint64(i % 64 * 4)
			parents[0] = mem.Request{ID: uint64(i + 1), Addr: base << mem.BlockShift, Op: mem.OpLoad}
			pkt := mem.Coalesced{
				ID: uint64(i + 1), Addr: base << mem.BlockShift,
				Size: 4 * mem.BlockSize, Op: mem.OpLoad, Parents: parents[:],
			}
			e, ok := f.Allocate(pkt)
			if !ok {
				b.Fatal("allocate failed")
			}
			f.Release(e)
		}
	})

	b.Run("hmc-submit-pop", func(b *testing.B) {
		d := hmc.New(hmc.DefaultConfig())
		now := int64(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Submit(mem.Coalesced{ID: uint64(i + 1), Addr: uint64(i%32) * 256, Size: 4 * mem.BlockSize, Op: mem.OpLoad}, now)
			for len(d.PopCompleted(now)) == 0 {
				now += 50
			}
		}
	})

	b.Run("sim-run-warm", func(b *testing.B) {
		// Whole simulations sharing one Scratch: allocs/op here is the
		// per-run residue — machine construction plus whatever growth
		// the arena has not yet absorbed.
		sc := sim.NewScratch()
		cfg := DefaultSimConfig("GS", ModePAC)
		cfg.Procs = []ProcSpec{{Benchmark: "GS", Cores: 2}}
		cfg.Scale = 0.02
		cfg.AccessesPerCore = 2_000
		cfg.Scratch = sc
		if _, err := RunBenchmark(cfg); err != nil { // warm the arena
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := RunBenchmark(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
