package racedet

import (
	"testing"

	"repro/internal/agenttest"
	"repro/internal/machine"
	"repro/internal/memory"
	"repro/internal/sim"
)

// The probe hooks ride the simulator's zero-alloc hot paths: a charged
// memory access, a barrier arrival, a wait-queue hand-off. With no
// probe attached each hook site must cost exactly one nil check —
// these tests pin that the instrumented paths still allocate nothing
// (the sim package's own AllocsPerRun tests cover Hold and the
// coroutine handoff; these cover the substrate-level paths the hooks
// were added to).

// TestMemoryAccessZeroAllocWithoutProbe pins the charged Read/Write
// path with the probe detached.
func TestMemoryAccessZeroAllocWithoutProbe(t *testing.T) {
	k := sim.NewKernel()
	m := machine.New(k, machine.Generic())
	mem := memory.New(m)
	r := memory.NewRegion[int64](mem, "x", memory.Inter, 0, 8)
	var avg float64
	k.Spawn("p", func(p *sim.Proc) {
		a := agenttest.New(p, 0)
		for i := 0; i < 64; i++ { // warm up carry accumulators
			r.Write(a, i%8, int64(i))
			_ = r.Read(a, i%8)
		}
		avg = testing.AllocsPerRun(500, func() {
			r.Write(a, 3, 7)
			_ = r.Read(a, 3)
			_ = memory.FetchAdd(r, a, 4, 1)
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Fatalf("memory access allocates %.2f/run without probe, want 0", avg)
	}
}

// TestBarrierZeroAllocWithoutProbe pins the barrier arrival/release
// path (both hook sites) with the probe detached.
func TestBarrierZeroAllocWithoutProbe(t *testing.T) {
	k := sim.NewKernel()
	b := sim.NewBarrier(k, 2)
	const warm, measured = 64, 500
	var avg float64
	k.Spawn("a", func(p *sim.Proc) {
		for i := 0; i < warm; i++ {
			b.Await(p)
		}
		avg = testing.AllocsPerRun(measured, func() { b.Await(p) })
	})
	k.Spawn("b", func(p *sim.Proc) {
		for i := 0; i < warm+measured+1; i++ {
			b.Await(p)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Fatalf("barrier round allocates %.2f/run without probe, want 0", avg)
	}
}

// TestSpawnJoinNoProbeOverhead sanity-checks that spawn/exit/join hook
// sites are inert without a probe: a full spawn-join cycle works and
// the kernel carries no probe state.
func TestSpawnJoinNoProbeOverhead(t *testing.T) {
	k := sim.NewKernel()
	k.Spawn("parent", func(p *sim.Proc) {
		c := k.Spawn("child", func(p *sim.Proc) { p.Hold(3) })
		p.Join(c)
		p.Join(c) // already-done path
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
