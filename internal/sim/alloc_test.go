package sim

import "testing"

// The dispatch hot path must not allocate: events live inline in the
// heap's slice (spare capacity is the free pool), coalesced holds touch
// no queue at all, and parking is a coroutine switch.
// These tests pin that property so a future "small" change (an
// interface box, a closure capture, a per-event pointer) fails loudly
// rather than silently regressing every benchmark.

// TestDispatchPathZeroAlloc covers the coalescing fast path: a lone
// process advancing its clock must be allocation-free.
func TestDispatchPathZeroAlloc(t *testing.T) {
	k := NewKernel()
	var avg float64
	k.Spawn("p", func(p *Proc) {
		p.Hold(1) // warm up
		avg = testing.AllocsPerRun(500, func() { p.Hold(1) })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Fatalf("coalesced Hold allocates %.2f/run, want 0", avg)
	}
}

// TestSlowPathZeroAllocSteadyState covers the full park → heap → resume
// cycle: a timer callback inside every hold window forces the slow
// path (the heap is never empty at the hold), yet after warm-up — heap
// capacity grown — the steady state must be allocation-free.
func TestSlowPathZeroAllocSteadyState(t *testing.T) {
	k := NewKernel()
	var avg float64
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < 64; i++ { // warm up heap + scheduler pools
			k.Schedule(1, nopFn)
			p.Hold(2)
		}
		avg = testing.AllocsPerRun(500, func() {
			k.Schedule(1, nopFn)
			p.Hold(2)
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Fatalf("slow-path Hold allocates %.2f/run, want 0", avg)
	}
}

// TestCrossProcHandoffZeroAllocSteadyState covers handoff between two
// coroutines: each measured round is two wakes and two resumes. AllocsPerRun reads global malloc counters and the kernel is
// strictly sequential, so the partner's allocations (there must be
// none) are counted too.
func TestCrossProcHandoffZeroAllocSteadyState(t *testing.T) {
	k := NewKernel()
	sa := NewSemaphore(k, 0)
	sb := NewSemaphore(k, 0)
	const warm, measured = 64, 500
	var avg float64
	k.Spawn("ping", func(p *Proc) {
		for i := 0; i < warm; i++ {
			sa.Release()
			sb.Acquire(p)
		}
		avg = testing.AllocsPerRun(measured, func() {
			sa.Release()
			sb.Acquire(p)
		})
	})
	k.Spawn("pong", func(p *Proc) {
		for i := 0; i < warm+measured+1; i++ {
			sa.Acquire(p)
			sb.Release()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Fatalf("ping-pong round allocates %.2f/run, want 0", avg)
	}
}

// TestStatsZeroAlloc pins the work counters' cost: counting a parked
// hold and a coalesced one, and reading the counters back, allocates
// nothing.
func TestStatsZeroAlloc(t *testing.T) {
	k := NewKernel()
	var avg float64
	var st Stats
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < 64; i++ {
			k.Schedule(1, nopFn)
			p.Hold(2)
		}
		avg = testing.AllocsPerRun(500, func() {
			k.Schedule(1, nopFn)
			p.Hold(2) // parks: a timer sits inside the window
			p.Hold(1) // coalesces: the queue is empty
			st = k.Stats()
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Fatalf("counted holds allocate %.2f/run, want 0", avg)
	}
	if st.Holds == 0 || st.Coalesced == 0 || st.Parks == 0 {
		t.Fatalf("counters not advancing: %+v", st)
	}
}
