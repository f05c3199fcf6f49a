package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// The tests in this file were written for the kernel's former
// step-machine execution mode (stackless processes on pooled carrier
// goroutines). Its coroutine replacement gives every process the
// properties that mode existed for — Proc records recycled through a
// free list, spawn→exit churn with no allocation and no new goroutine,
// finished processes costing nothing — so each test keeps its name and
// now pins the same property, or the same kill and teardown semantics,
// for coroutine processes.

// TestStepHoldAndChain: a process's holds coalesce when it owns the
// clock and park when a competing event exists, with identical
// observable times either way.
func TestStepHoldAndChain(t *testing.T) {
	k := NewKernel()
	var at []Time
	var parks []int64
	k.Schedule(5, func() {}) // competitor: forces the first hold to park
	k.Spawn("s", func(p *Proc) {
		at = append(at, p.Now())
		p.Hold(10)
		at = append(at, p.Now())
		parks = append(parks, k.Stats().Parks)
		p.Hold(7) // heap empty now: must coalesce
		at = append(at, p.Now())
		parks = append(parks, k.Stats().Parks)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(at) != "[0 10 17]" {
		t.Fatalf("times = %v, want [0 10 17]", at)
	}
	if fmt.Sprint(parks) != "[1 1]" {
		t.Fatalf("park counts = %v, want [1 1] (contested hold parks, uncontested coalesces)", parks)
	}
}

// TestStepJoin covers both join flavors: a live target parks the
// joiner until it retires; an already-done target returns inline
// without parking.
func TestStepJoin(t *testing.T) {
	k := NewKernel()
	var joinedLive, joinedDone Time = -1, -1
	child := k.Spawn("child", func(p *Proc) { p.Hold(4) })
	child.Pin()
	k.Spawn("joiner", func(p *Proc) {
		p.Join(child)
		joinedLive = p.Now()
		before := k.Stats().Parks
		p.Join(child)
		if k.Stats().Parks != before {
			t.Error("join on done child parked")
		}
		joinedDone = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if joinedLive != 4 || joinedDone != 4 {
		t.Fatalf("joinedLive=%d joinedDone=%d, want 4,4", joinedLive, joinedDone)
	}
}

// TestStepMidActivationPark: a body may block in any primitive at any
// point; the interleaving follows virtual time exactly.
func TestStepMidActivationPark(t *testing.T) {
	k := NewKernel()
	sem := NewSemaphore(k, 0)
	var order []string
	k.Spawn("g", func(p *Proc) {
		p.Hold(3)
		order = append(order, fmt.Sprintf("g release at %d", p.Now()))
		sem.Release()
	})
	k.Spawn("s", func(p *Proc) {
		sem.Acquire(p) // parks until t=3
		order = append(order, fmt.Sprintf("s acquired at %d", p.Now()))
		p.Hold(2) // coalesces
		order = append(order, fmt.Sprintf("s held at %d", p.Now()))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"g release at 3", "s acquired at 3", "s held at 5"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestStepBarrierAwait: the tripping arrival continues inline; earlier
// arrivals are released in FIFO order at the trip time.
func TestStepBarrierAwait(t *testing.T) {
	k := NewKernel()
	bar := NewBarrier(k, 3)
	var events []string
	await := func(name string, hold Time) {
		k.Spawn(name, func(p *Proc) {
			p.Hold(hold)
			if bar.Await(p) {
				events = append(events, fmt.Sprintf("%s tripped at %d", name, p.Now()))
			} else {
				events = append(events, fmt.Sprintf("%s at %d", name, p.Now()))
			}
		})
	}
	await("s1", 0)
	await("g", 2)
	await("s2", 5)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[s2 tripped at 5 s1 at 5 g at 5]" // FIFO: s1 waited at t=0, g at t=2
	if fmt.Sprint(events) != want {
		t.Fatalf("events = %v, want %s", events, want)
	}
}

// TestStepDefer: a body's deferred function runs exactly once at
// retirement, after the body and before joiners resume.
func TestStepDefer(t *testing.T) {
	k := NewKernel()
	var order []string
	c := k.Spawn("c", func(p *Proc) {
		defer func() { order = append(order, fmt.Sprintf("defer at %d killed=%v", p.Now(), p.Killed())) }()
		p.Hold(3)
		order = append(order, "body done")
	})
	k.Spawn("j", func(p *Proc) {
		p.Join(c)
		order = append(order, "joiner resumed")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[body done defer at 3 killed=false joiner resumed]"
	if fmt.Sprint(order) != want {
		t.Fatalf("order = %v, want %s", order, want)
	}
}

// TestStepKillWaiting: killing a process parked on a queue runs its
// defers (with Killed observable), wakes joiners at the kill time,
// removes it from the queue, and lets the run complete normally.
func TestStepKillWaiting(t *testing.T) {
	k := NewKernel()
	q := &WaitQueue{}
	deferRan := false
	victim := k.Spawn("victim", func(p *Proc) {
		defer func() { deferRan = p.Killed() }()
		q.Wait(p)
		t.Error("victim resumed past its kill point")
	})
	victim.Pin()
	joined := Time(-1)
	k.Spawn("watcher", func(p *Proc) {
		p.Hold(10)
		victim.Kill()
		p.Join(victim)
		joined = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !deferRan {
		t.Fatal("victim's defer did not run (or saw Killed=false)")
	}
	if !victim.Done() || !victim.Killed() {
		t.Fatal("victim not retired as killed")
	}
	if joined != 10 {
		t.Fatalf("join completed at t=%d, want 10", joined)
	}
	if q.Len() != 0 {
		t.Fatalf("victim still queued after retirement (len=%d)", q.Len())
	}
}

// TestStepKillNew: killed before its first activation, a process's
// body never runs and no coroutine is ever resumed for it.
func TestStepKillNew(t *testing.T) {
	k := NewKernel()
	ran := false
	victim := k.Spawn("victim", func(p *Proc) {
		defer func() { ran = true }()
		ran = true
	})
	victim.Pin()
	victim.Kill()
	joinedEarly := false
	k.Spawn("joiner", func(p *Proc) {
		p.Join(victim)
		joinedEarly = p.Now() == 0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("killed-before-start body ran")
	}
	if !victim.Done() || !joinedEarly {
		t.Fatalf("victim done=%v joinedEarly=%v, want true,true", victim.Done(), joinedEarly)
	}
	if r := k.Stats().Resumes; r != 1 {
		t.Fatalf("%d coroutine resumes, want 1 (the joiner's start only)", r)
	}
}

// TestStepKillSelf: a process may kill itself; its defers run, its
// worker returns to the pool, and dispatch continues.
func TestStepKillSelf(t *testing.T) {
	k := NewKernel()
	deferRan := false
	k.Spawn("suicidal", func(p *Proc) {
		defer func() { deferRan = true }()
		p.Hold(4)
		p.Kill()
		t.Error("Kill returned on self-kill")
	})
	k.Spawn("bystander", func(p *Proc) {
		p.Hold(9)
		// The suicidal proc's worker is back on the pool.
		if w := len(k.idle); w != 1 {
			t.Errorf("%d idle workers after the self-kill, want 1", w)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !deferRan || k.Now() != 9 {
		t.Fatalf("deferRan=%v now=%d, want true,9", deferRan, k.Now())
	}
}

// TestStepDeadlockTeardown: an error-terminated Run unwinds every
// parked process — defers observe Unwinding(), the live list empties,
// and no coroutine goroutine leaks.
func TestStepDeadlockTeardown(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	q := &WaitQueue{}
	unwound := 0
	for i := 0; i < 8; i++ {
		k.Spawn(fmt.Sprintf("stuck%d", i), func(p *Proc) {
			defer func() {
				if p.Unwinding() {
					unwound++
				}
			}()
			q.Wait(p)
			t.Error("torn-down proc resumed")
		})
	}
	var dead *ErrDeadlock
	if err := k.Run(); !errors.As(err, &dead) {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
	if unwound != 8 {
		t.Fatalf("defers observed Unwinding on %d of 8 torn-down procs", unwound)
	}
	if live := k.Procs(); len(live) != 0 {
		t.Fatalf("%d procs still live after teardown, want 0", len(live))
	}
	waitGoroutines(t, base)
}

// TestStepPanicTeardown: a panic in a body surfaces as ProcPanic and
// unwinds everything else — a proc parked in a hold and one parked on
// a semaphore — without leaking their coroutines.
func TestStepPanicTeardown(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	sem := NewSemaphore(k, 0)
	k.Spawn("held", func(p *Proc) { p.Hold(1000) })
	k.Spawn("parked", func(p *Proc) { sem.Acquire(p) }) // never released
	k.Spawn("bomb", func(p *Proc) {
		p.Hold(5)
		panic("boom")
	})
	var pp *ProcPanic
	if err := k.Run(); !errors.As(err, &pp) || pp.Proc != "bomb" {
		t.Fatalf("Run = %v, want ProcPanic from bomb", err)
	}
	waitGoroutines(t, base)
}

// TestStepNoGoroutinePerProc is the scaling property: a finished
// process keeps no goroutine. A thousand spawn→exit cycles run every
// child on the same pooled coroutine, so the goroutine count tracks
// live processes, not processes ever spawned.
func TestStepNoGoroutinePerProc(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	const n = 1000
	k.Spawn("driver", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Join(k.Spawn("child", benchChild))
		}
		// The driver's coroutine and one pooled worker.
		if g := runtime.NumGoroutine(); g > base+2 {
			t.Errorf("%d goroutines after %d spawns (base %d)", g, n, base)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Per child: its start and the driver's join wake (the child's
	// hold coalesces: nothing else is queued); plus the driver's start.
	if st := k.Stats(); st.Resumes != 2*n+1 || st.Coalesced != n {
		t.Errorf("stats = %+v, want %d resumes and %d coalesced holds", st, 2*n+1, n)
	}
	waitGoroutines(t, base)
}

// TestStepProcRecycling: records of finished procs are reused; Pin
// opts out; a record with a stale wake in the heap is not reused until
// the wake drains.
func TestStepProcRecycling(t *testing.T) {
	k := NewKernel()
	k.Spawn("driver", func(p *Proc) {
		a := k.Spawn("a", benchExit)
		p.Join(a)
		b := k.Spawn("b", benchExit)
		p.Join(b)
		if a != b {
			t.Error("retired record was not recycled into the next spawn")
		}

		pinned := k.Spawn("pinned", benchExit)
		pinned.Pin()
		p.Join(pinned)
		c := k.Spawn("c", benchExit)
		p.Join(c)
		if c == pinned {
			t.Error("pinned record was recycled")
		}
		if !pinned.Done() {
			t.Error("pinned handle unreadable after retirement")
		}

		// Stale-wake safety: kill a proc parked on a long hold. Its
		// retirement leaves the hold's wake in the heap, so the record
		// must not be reused until that wake drains at t+100.
		victim := k.Spawn("victim", func(p *Proc) { p.Hold(100) })
		p.Yield() // let victim park
		victim.Kill()
		p.Yield() // poison wake retires victim; stale wake remains
		early := k.Spawn("early", benchExit)
		if early == victim {
			t.Error("record reused while a stale wake still referenced it")
		}
		p.Join(early)
		p.Hold(200) // stale wake drains at +100, freeing the record
		late := k.Spawn("late", benchExit)
		if late != victim {
			t.Error("record not reused after its stale wake drained")
		}
		p.Join(late)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStepRunAfterSuccess: processes work across repeated Runs on one
// kernel; a completed Run drains the worker pool and the next one
// starts coroutines on demand.
func TestStepRunAfterSuccess(t *testing.T) {
	k := NewKernel()
	k.Spawn("a", func(p *Proc) { p.Hold(5) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(k.idle) != 0 {
		t.Fatalf("%d idle workers outlive Run", len(k.idle))
	}
	ran := false
	k.Spawn("b", func(p *Proc) { ran = true })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran || k.Now() != 5 {
		t.Fatalf("ran=%v now=%d, want true,5", ran, k.Now())
	}
}

// ---------------------------------------------------------------------------
// Recycling equivalence: pooled Proc records and coroutine workers may
// only save allocation, never change an observable. The same random
// program is built once with recycling (the default) and once with
// every record pinned, and the traces must be bit-equal.

type equivOpKind uint8

const (
	opHold equivOpKind = iota
	opChild
	opBarrier
)

type equivOp struct {
	kind equivOpKind
	d    Time
}

// genEquivProgram derives per-proc op lists from seed. Barrier ops are
// emitted in lockstep rounds so every proc arrives the same number of
// times and the program cannot deadlock.
func genEquivProgram(seed int64) (nProcs int, prog [][]equivOp) {
	rng := rand.New(rand.NewSource(seed))
	nProcs = 2 + rng.Intn(4)
	rounds := 1 + rng.Intn(4)
	useBarrier := rng.Intn(2) == 0
	prog = make([][]equivOp, nProcs)
	for i := range prog {
		for r := 0; r < rounds; r++ {
			for n := 1 + rng.Intn(3); n > 0; n-- {
				switch rng.Intn(3) {
				case 0, 1:
					prog[i] = append(prog[i], equivOp{kind: opHold, d: Time(rng.Intn(10))})
				case 2:
					prog[i] = append(prog[i], equivOp{kind: opChild})
				}
			}
			if useBarrier {
				prog[i] = append(prog[i], equivOp{kind: opBarrier})
			}
		}
	}
	return nProcs, prog
}

// spawnFor returns a Spawn that pins every record when pin is set, so
// nothing is ever recycled.
func spawnFor(k *Kernel, pin bool) func(string, func(*Proc)) *Proc {
	return func(name string, fn func(*Proc)) *Proc {
		p := k.Spawn(name, fn)
		if pin {
			p.Pin()
		}
		return p
	}
}

func buildEquivProgram(seed int64, pin bool) []string {
	nProcs, prog := genEquivProgram(seed)
	k := NewKernel()
	k.MaxEvents = 200_000
	spawn := spawnFor(k, pin)
	var trace []string
	logf := func(format string, args ...any) {
		trace = append(trace, fmt.Sprintf(format, args...))
	}
	bar := NewBarrier(k, nProcs)
	for i := 0; i < nProcs; i++ {
		ops := prog[i]
		childName := fmt.Sprintf("p%d/c", i)
		spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j, o := range ops {
				switch o.kind {
				case opHold:
					p.Hold(o.d)
					logf("p%d hold %d at %d", i, j, p.Now())
				case opChild:
					c := spawn(childName, func(c *Proc) {
						c.Hold(3)
						logf("p%d child id=%d at %d", i, c.ID(), c.Now())
					})
					p.Join(c)
					logf("p%d joined %d at %d", i, j, p.Now())
				case opBarrier:
					bar.Await(p)
					logf("p%d barrier %d at %d", i, j, p.Now())
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		trace = append(trace, "ERR "+err.Error())
	}
	return trace
}

// TestStepObservationalEquivalence: recycling may only elide
// allocation, never reorder or retime anything observable.
func TestStepObservationalEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		pooled := buildEquivProgram(seed, false)
		pinned := buildEquivProgram(seed, true)
		return len(pooled) > 0 && strings.Join(pooled, "\n") == strings.Join(pinned, "\n")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// buildChurnKillProgram extends buildKillProgram with churn: between
// steps a proc may spawn and join a short-lived child, so records and
// workers recycle while a controller kills random top-level procs at
// random times. The top-level handles are always pinned (the kill
// closures retain them); pin additionally pins every child.
func buildChurnKillProgram(seed int64, pin bool) []string {
	rng := rand.New(rand.NewSource(seed))
	k := NewKernel()
	k.MaxEvents = 200_000
	spawn := spawnFor(k, pin)
	var trace []string
	logf := func(format string, args ...any) {
		trace = append(trace, fmt.Sprintf(format, args...))
	}
	sem := NewSemaphore(k, 1+rng.Intn(2))
	nProcs := 2 + rng.Intn(4)
	procs := make([]*Proc, nProcs)
	for i := 0; i < nProcs; i++ {
		nOps := 2 + rng.Intn(6)
		holds := make([]Time, nOps)
		useSem := make([]bool, nOps)
		child := make([]bool, nOps)
		for j := range holds {
			holds[j] = Time(rng.Intn(12))
			useSem[j] = rng.Intn(2) == 0
			child[j] = rng.Intn(3) == 0
		}
		procs[i] = k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			defer func() { logf("p%d defer at %d killed=%v", i, p.Now(), p.Killed()) }()
			for j := range holds {
				if useSem[j] {
					sem.Acquire(p)
					p.Hold(holds[j])
					sem.Release()
				} else {
					p.Hold(holds[j])
				}
				if child[j] {
					p.Join(spawn(fmt.Sprintf("p%d/c", i), func(c *Proc) {
						defer func() { logf("p%d child defer at %d", i, c.Now()) }()
						c.Hold(holds[j] / 2)
					}))
				}
				logf("p%d step %d at %d", i, j, p.Now())
			}
		})
		procs[i].Pin()
	}
	nKills := 1 + rng.Intn(3)
	for j := 0; j < nKills; j++ {
		at := Time(rng.Intn(40))
		victim := procs[rng.Intn(nProcs)]
		k.Schedule(at, func() {
			logf("kill %s at %d (done=%v)", victim.Name(), k.Now(), victim.Done())
			victim.Kill()
		})
	}
	if err := k.Run(); err != nil {
		trace = append(trace, "ERR "+err.Error())
	}
	return trace
}

// killEquivReproSeed is a seed whose program ends in a deadlock after
// a kill strands a semaphore permit, so the final teardown unwinds
// several parked procs; it once exposed a teardown defer order that
// depended on where control happened to be. Teardown now unwinds in
// spawn order from the dispatch loop, and the seed stays pinned.
const killEquivReproSeed int64 = -6100152632375425395

func checkStepKillEquiv(seed int64) bool {
	pooled := buildChurnKillProgram(seed, false)
	pinned := buildChurnKillProgram(seed, true)
	return len(pooled) > 0 && strings.Join(pooled, "\n") == strings.Join(pinned, "\n")
}

// TestStepKillEquivalence: kills, unwinds and error teardowns are
// observationally identical with and without recycling — on the pinned
// regression seed first, then 1000 randomized programs.
func TestStepKillEquivalence(t *testing.T) {
	if !checkStepKillEquiv(killEquivReproSeed) {
		pooled := buildChurnKillProgram(killEquivReproSeed, false)
		pinned := buildChurnKillProgram(killEquivReproSeed, true)
		t.Fatalf("pinned seed %d diverged\n--- pooled ---\n%s\n--- pinned ---\n%s",
			killEquivReproSeed, strings.Join(pooled, "\n"), strings.Join(pinned, "\n"))
	}
	f := func(seed int64) bool { return checkStepKillEquiv(seed) }
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestStepChurnZeroAllocSteadyState covers spawn→exit churn: after
// warm-up (free list primed, one worker pooled, joiner-queue and heap
// capacity grown) a full spawn + bind + retire + recycle + join cycle
// must be allocation-free. This is the property the Kernel_SpawnChurn
// benchmark reports and CI gates on.
func TestStepChurnZeroAllocSteadyState(t *testing.T) {
	k := NewKernel()
	var avg float64
	k.Spawn("driver", func(p *Proc) {
		churn := func() { p.Join(k.Spawn("churn", benchExit)) }
		for i := 0; i < 64; i++ { // warm up free list, heap, worker pool
			churn()
		}
		avg = testing.AllocsPerRun(500, churn)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Fatalf("spawn/exit churn allocates %.2f/run, want 0", avg)
	}
}

// TestStepSpawnCycleZeroAllocSteadyState: the cycle Kernel_Spawn
// measures — spawn a child that holds, then join it — is
// allocation-free at steady state, whether the child's hold coalesces
// or parks behind a timer.
func TestStepSpawnCycleZeroAllocSteadyState(t *testing.T) {
	k := NewKernel()
	var avg float64
	k.Spawn("driver", func(p *Proc) {
		cycle := func() {
			k.Schedule(1, nopFn) // competitor inside the window: the first child's hold parks
			p.Join(k.Spawn("child", benchChild))
			p.Join(k.Spawn("child", benchChild))
		}
		for i := 0; i < 64; i++ {
			cycle()
		}
		avg = testing.AllocsPerRun(500, cycle)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Fatalf("spawn cycle allocates %.2f/run, want 0", avg)
	}
}
