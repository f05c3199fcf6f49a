package sim

import (
	"fmt"
	"iter"
)

// errUnwind is the sentinel panicked through a process body to unwind
// its coroutine when the process is killed or the kernel tears down
// after a fatal error. Deferred functions run as usual; the run wrapper
// recovers the sentinel and retires the process. Recover-all code in
// process bodies must re-panic values it does not recognize or it will
// swallow its own cancellation (the STM layer already follows this
// rule for its own control-flow panics).
var errUnwind = new(int)

type procState uint8

const (
	stateNew procState = iota
	stateRunning
	stateWaiting
	stateDone
)

func (s procState) String() string {
	switch s {
	case stateNew:
		return "new"
	case stateRunning:
		return "running"
	case stateWaiting:
		return "waiting"
	case stateDone:
		return "done"
	}
	return fmt.Sprintf("procState(%d)", uint8(s))
}

// Proc is a simulated process. All its methods must be called only from
// the process's own body (the kernel guarantees only one body runs at a
// time), except ID, Name and Done which are safe anywhere the kernel is
// quiescent.
type Proc struct {
	k     *Kernel
	id    int
	name  string
	state procState
	fn    func(p *Proc)
	w     *worker // coroutine running the body; nil before start and after retirement

	joiners   WaitQueue // processes blocked in Join on this one
	killed    bool      // Kill was called; unwind at the next chance
	noRecycle bool      // opt out of free-list reuse (Pin, WaitTimeout)

	// Pooling safety: refs counts heap events referencing this record;
	// waitq is the queue the proc is currently enrolled on, if any.
	refs  int
	waitq *WaitQueue

	// Live-list links (kernel retains only live procs; see Kernel.alive).
	prevLive *Proc
	nextLive *Proc

	// Ctx is an arbitrary per-process slot for higher layers (the
	// STAMP core attaches its accounting context here).
	Ctx any
}

// ID returns the process's kernel-assigned identifier (spawn order).
func (p *Proc) ID() int { return p.id }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.state == stateDone }

// Kernel returns the kernel the process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Killed reports whether Kill has been called on the process.
func (p *Proc) Killed() bool { return p.killed }

// Unwinding reports whether the process must abandon execution: it was
// killed, or the kernel is tearing down after a fatal error. Cleanup
// code (deferred functions) uses this to skip work that would advance
// the clock or block.
func (p *Proc) Unwinding() bool { return p.killed || p.k.poisoned }

// Kill terminates the process without ending the simulation: its body
// unwinds (deferred functions run), processes joined on it are woken,
// and dispatch continues. Killing an already-done or already-killed
// process is a no-op. Kill must be called from simulation context — a
// process body or a kernel callback — and is itself instantaneous in
// virtual time.
//
// A process killed while parked is woken at the current time and
// unwinds instead of resuming; one killed before its first activation
// is retired without its body ever running; a process may kill itself,
// which unwinds immediately (Kill does not return).
func (p *Proc) Kill() {
	if p.state == stateDone || p.killed {
		return
	}
	p.killed = true
	switch p.state {
	case stateNew:
		// Not yet activated: its pending evStart retires it.
	case stateWaiting:
		// Poison-wake: the pending park observes killed and unwinds.
		// Any wake already queued for p goes stale and is ignored.
		p.k.push(p.k.now, evWake, p, nil)
	case stateRunning:
		// Only the running process itself can observe this state (the
		// kernel is strictly sequential), so this is a self-kill.
		panic(errUnwind)
	}
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// run executes the body on p's coroutine and retires the process. It
// is where every unwind converges: a kill or kernel teardown panics the
// errUnwind sentinel through the body (running its defers), and the
// recover here retires the process quietly (teardown), reports a user
// panic as a ProcPanic for dispatch to act on, or — on a normal return
// or a kill — wakes joiners and recycles the record. No panic ever
// escapes the coroutine into the dispatch loop.
func (p *Proc) run() {
	k := p.k
	defer func() {
		r := recover()
		p.state = stateDone
		k.live--
		k.unlive(p)
		if k.poisoned {
			return
		}
		if r != nil && r != errUnwind {
			k.err = &ProcPanic{Proc: p.name, Value: r}
			return
		}
		// The probe sees the exit before the joiner wake so that both
		// the signal edges fired by the broadcast (cur is still p here)
		// and later already-done Joins observe p's final position.
		if k.probe != nil {
			k.probe.ProcExit(p)
		}
		p.joiners.broadcastLocked(k)
		p.leaveWaitq()
		k.maybeRecycle(p)
	}()
	p.fn(p)
}

// Hold advances the process's local time by d ticks: it schedules a wake
// at now+d and blocks until dispatched. Hold(0) yields to same-time
// events already queued.
//
// Coalescing fast path: when no other event is scheduled at or before
// now+d, the wake this Hold would push is guaranteed to be the next
// dispatch, so the park → heap → resume round-trip is skipped and the
// clock advanced in place. Dispatch order is unchanged — the skipped
// wake had no competitor in the window, and a same-time competitor at
// exactly now+d forces the slow path (FIFO order says the fresh wake
// runs last). The skipped dispatch still counts toward MaxEvents; at
// the budget's edge the slow path runs so Run reports ErrEventLimit.
func (p *Proc) Hold(d Time) {
	if d < 0 {
		panic("sim: Hold with negative duration")
	}
	k := p.k
	if p.killed || k.poisoned {
		panic(errUnwind)
	}
	k.stats.Holds++
	if k.canCoalesce(d) {
		k.stats.Events++
		k.stats.Coalesced++
		k.now += d
		return
	}
	k.push(k.now+d, evWake, p, nil)
	p.park()
}

// CanCoalesce reports whether a Hold(d) would take the coalescing fast
// path — equivalently, whether the process owns the next d ticks
// outright: no event of any other process, timer or spawn is scheduled
// at or before now+d, so no simulation state can change in the window.
// Higher layers use this to batch several cost charges into one Hold
// only when doing so is provably order- and observation-preserving.
func (p *Proc) CanCoalesce(d Time) bool { return p.k.canCoalesce(d) }

// park yields p's coroutine to the dispatch loop, which resumes it when
// some event wakes p. A park that returns because p was killed, or
// because the kernel is tearing down after an error (which stops the
// coroutine, so the yield returns false), unwinds the body instead of
// returning.
func (p *Proc) park() {
	if p.killed || p.k.poisoned {
		panic(errUnwind)
	}
	p.state = stateWaiting
	p.k.stats.Parks++
	if !p.w.yield(struct{}{}) || p.killed || p.k.poisoned {
		panic(errUnwind)
	}
}

// Join blocks until other's body has returned. Joining an already-done
// process returns immediately.
func (p *Proc) Join(other *Proc) {
	if other.k != p.k {
		panic(fmt.Sprintf("sim: %q joining %q across kernels (shards); cross-shard joins are unsupported", p.name, other.name))
	}
	if other.state == stateDone {
		if k := p.k; k.probe != nil {
			k.probe.ProcJoin(p, other)
		}
		return
	}
	other.joiners.Wait(p)
}

// Yield gives other same-time events a chance to run before p continues.
func (p *Proc) Yield() { p.Hold(0) }

// Pin opts the proc's record out of free-list reuse: its *Proc stays
// valid (state queryable, joinable, killable) after the proc finishes.
// Callers that retain handles past retirement must Pin them.
func (p *Proc) Pin() { p.noRecycle = true }

// leaveWaitq removes p from the wait queue it is enrolled on, if any —
// part of retirement, so a recycled record can never be signaled by a
// queue its previous incarnation waited on.
func (p *Proc) leaveWaitq() {
	if q := p.waitq; q != nil {
		q.remove(p)
		p.waitq = nil
	}
}

// takeProc returns a Proc record for a new spawn, reusing a recycled
// one when available. A recycled record keeps its joiner-queue capacity
// and is reset only here, so a retired handle stays readable until a
// later spawn actually reuses it.
func (k *Kernel) takeProc() *Proc {
	var p *Proc
	if n := len(k.freeProcs); n > 0 {
		p = k.freeProcs[n-1]
		k.freeProcs[n-1] = nil
		k.freeProcs = k.freeProcs[:n-1]
		p.killed = false
		p.Ctx = nil
	} else {
		p = &Proc{k: k}
	}
	p.id = k.nextID
	k.nextID++
	p.state = stateNew
	return p
}

// maybeRecycle returns a retired proc's record to the free list when
// nothing can reach it anymore: no heap event references it (refs), so
// a stale wake can never land on a reincarnated record; it sits on no
// wait queue, so an old queue can never signal a new incarnation; and
// nothing opted it out of reuse (Pin, WaitTimeout). A dead kernel
// recycles nothing.
func (k *Kernel) maybeRecycle(p *Proc) {
	if p.noRecycle || p.refs != 0 || p.waitq != nil || k.poisoned || k.stopped {
		return
	}
	p.fn = nil
	k.freeProcs = append(k.freeProcs, p)
}

// worker is a pooled coroutine that runs process bodies, one at a time.
// The dispatch loop binds a starting process to an idle worker and
// switches to it with next; the body parks with yield. When the body
// finishes, the worker yields once more and waits, idle, for the next
// process — so spawn→exit churn reuses coroutines instead of starting
// a goroutine per process. stop ends the coroutine: a parked body
// unwinds first (see Proc.park).
type worker struct {
	p     *Proc
	yield func(struct{}) bool
	next  func() (struct{}, bool)
	stop  func()
}

// takeWorker returns an idle worker, starting a new coroutine when the
// pool is empty.
func (k *Kernel) takeWorker() *worker {
	if n := len(k.idle); n > 0 {
		w := k.idle[n-1]
		k.idle[n-1] = nil
		k.idle = k.idle[:n-1]
		return w
	}
	w := &worker{}
	w.next, w.stop = iter.Pull(w.loop)
	return w
}

// loop is the worker's coroutine body: run the bound process to
// retirement, then yield as idle until the dispatch loop binds another
// one. A kernel teardown, or stop while idle, ends it.
func (w *worker) loop(yield func(struct{}) bool) {
	w.yield = yield
	for {
		p := w.p
		w.p = nil
		p.run()
		if p.k.poisoned || !yield(struct{}{}) {
			return
		}
	}
}
