package sim

import (
	"runtime"
	"testing"
)

// BenchmarkKernel_HoldLoop measures the hot dispatch path of the
// simulator: a single process repeatedly advancing its clock. With no
// competing event in the hold window this is exactly the case the
// hold-coalescing fast path serves, so the benchmark bounds the cost of
// charging one model operation.
func BenchmarkKernel_HoldLoop(b *testing.B) {
	k := NewKernel()
	k.Spawn("spin", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Hold(1)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernel_PingPong measures the full park → heap → resume
// round-trip: two processes alternating through semaphores, so every
// round costs two wake events and four coroutine switches. This is the
// path the coalescing fast path cannot elide.
func BenchmarkKernel_PingPong(b *testing.B) {
	k := NewKernel()
	sa := NewSemaphore(k, 0)
	sb := NewSemaphore(k, 0)
	k.Spawn("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			sa.Release()
			sb.Acquire(p)
		}
	})
	k.Spawn("pong", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			sa.Acquire(p)
			sb.Release()
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernel_Spawn measures process creation: spawn, one hold,
// join. At steady state the child's Proc record and coroutine worker
// both come from the kernel's pools, so a cycle allocates nothing and
// starts no goroutine.
func BenchmarkKernel_Spawn(b *testing.B) {
	k := NewKernel()
	k.Spawn("root", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Join(k.Spawn("child", benchChild))
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

func benchChild(p *Proc) { p.Hold(1) }

func benchExit(p *Proc) {}

// BenchmarkKernel_SpawnChurn measures pure spawn→exit churn: the child
// finishes on its first activation, so every cycle exercises free-list
// take, worker bind, retire and recycle. Steady state must be 0
// allocs/op (TestStepChurnZeroAllocSteadyState enforces the exact-zero
// property; CI gates on this benchmark's allocs/op column).
func BenchmarkKernel_SpawnChurn(b *testing.B) {
	k := NewKernel()
	k.Spawn("root", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Join(k.Spawn("child", benchExit))
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernel_MillionProcs cycles ~1M procs through one run in
// waves, with at most one wave live at a time, and reports observed
// peak heap growth divided by total procs spawned. O(live) memory
// means the metric stays far below one Proc record's size (~150 B);
// retaining every record would push it to hundreds of bytes per proc.
// (Coroutine stacks are not heap; the pooled workers cap them at one
// wave's worth.)
func BenchmarkKernel_MillionProcs(b *testing.B) {
	const (
		perWave = 1024
		waves   = 1024 // 1<<20 procs total
	)
	for iter := 0; iter < b.N; iter++ {
		k := NewKernel()
		var base, peak uint64
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		base = ms.HeapAlloc
		k.Spawn("root", func(p *Proc) {
			for wave := 1; wave <= waves; wave++ {
				var last *Proc
				for j := 0; j < perWave; j++ {
					last = k.Spawn("w", benchChild)
				}
				if wave%128 == 0 {
					runtime.GC()
					runtime.ReadMemStats(&ms)
					if ms.HeapAlloc > peak {
						peak = ms.HeapAlloc
					}
				}
				p.Join(last)
			}
		})
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
		if peak > base {
			b.ReportMetric(float64(peak-base)/float64(perWave*waves), "peak-bytes/proc")
		} else {
			b.ReportMetric(0, "peak-bytes/proc")
		}
	}
}

// BenchmarkKernel_TimerDrain measures kernel-context callbacks: schedule
// a timer, hold past it, repeat — the slow dispatch path with a non-empty
// heap on every hold.
func BenchmarkKernel_TimerDrain(b *testing.B) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			k.Schedule(1, nopFn)
			p.Hold(2)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// nopFn is package-level so scheduling it never allocates a closure.
var nopFn = func() {}
