// Package sim implements a deterministic discrete-event simulation kernel.
//
// Simulated processes are plain blocking Go functions, each run as a
// stdlib coroutine (iter.Pull) on a pooled worker. One dispatch loop,
// on the goroutine that calls Run or RunUntil, pops events in (time,
// sequence) order and resumes the process each wake belongs to with
// the coroutine's next(); a process gives control back by parking,
// which is a yield. Exactly one of the loop and the processes runs at
// any instant, and the hand-over is a direct coroutine switch, not a
// trip through the Go scheduler. Virtual time is an int64 tick
// counter, so every run of the same program is bit-for-bit
// reproducible regardless of host scheduling.
//
// The kernel knows nothing about machines, energy or the STAMP model; it
// provides only time, processes, wait queues and timer callbacks. Higher
// layers (internal/machine, internal/core, ...) charge model costs by
// calling Proc.Hold and by keeping their own counters.
package sim

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Time is virtual simulation time in ticks. One tick is one "local
// operation" in the STAMP model's terms.
type Time int64

// Infinity is a time larger than any schedulable event time.
const Infinity Time = 1<<62 - 1

// eventKind discriminates the queue entries the kernel dispatches.
type eventKind uint8

const (
	evWake  eventKind = iota // resume a parked or held process
	evCall                   // run a kernel-context callback
	evStart                  // first activation of a spawned process
)

type event struct {
	at   Time
	seq  int64 // tie-break: FIFO among same-time events
	kind eventKind
	proc *Proc  // evWake, evStart
	fn   func() // evCall
}

// Kernel is a discrete-event simulator instance. The zero value is not
// usable; call NewKernel.
type Kernel struct {
	now    Time
	seq    int64
	events eventHeap

	// Live processes form an intrusive doubly-linked list in spawn
	// order (Proc.prevLive/nextLive). Finished procs leave the list, so
	// kernel memory is O(live procs), not O(procs ever spawned) — the
	// property that lets one run cycle through millions of processes.
	liveHead *Proc
	liveTail *Proc

	live    int // spawned and not yet finished
	err     error
	nextID  int
	running bool

	// cur is the process the dispatch loop has resumed, or nil in
	// kernel context (evCall callbacks, teardown). It exists so probe
	// hooks can attribute wait-queue signals and spawns to the process
	// that issued them.
	cur *Proc

	// probe, when non-nil, observes synchronization structure (see
	// Probe). Every hook site is gated on a nil check so the disabled
	// case costs nothing.
	probe Probe

	// Error-path teardown state (see teardown). stopped marks the
	// kernel permanently dead after an error-terminated Run; poisoned
	// is set while (and after) parked processes are being unwound.
	stopped  bool
	poisoned bool

	// MaxEvents bounds the number of dispatched events; 0 means no
	// bound. Exceeding it makes Run return ErrEventLimit. Coalesced
	// holds (see Proc.Hold) count as dispatches, so the bound is
	// independent of whether the fast path fires.
	MaxEvents int64

	// stats are the host-side work counters behind Stats; stats.Events
	// doubles as the dispatch count MaxEvents bounds.
	stats Stats

	// interrupt, when set, asks dispatch to end the run at the next
	// event boundary (see Interrupt). It is the kernel's only state a
	// goroutine other than the dispatcher may touch, hence the atomic.
	interrupt atomic.Pointer[ErrInterrupted]

	// DisableFastPath turns off the hold-coalescing fast path so every
	// Hold parks its coroutine and is resumed by dispatch. The two
	// modes are observationally equivalent; the flag exists so tests
	// can assert exactly that (see fuzz_test.go).
	DisableFastPath bool

	// pauseAt, when nonzero, is RunUntil's exclusive dispatch horizon:
	// instead of finishing, dispatch pauses once every remaining event
	// sits at or past the horizon — or the queue is empty with
	// processes still live, since under sharding a neighbouring shard
	// may yet post work for them (see shard.go).
	pauseAt Time

	// freeProcs holds retired Proc records for reuse and idle holds the
	// coroutine workers with no process bound (see proc.go), so
	// spawn→exit churn allocates nothing at steady state.
	freeProcs []*Proc
	idle      []*worker
}

// Stats are the kernel's host-side work counters. They count work, not
// time, so they are a deterministic function of the simulated program:
// a change that adds coroutine switches shows up here on any host.
type Stats struct {
	Events    int64 // dispatched events, coalesced holds included
	Holds     int64 // Proc.Hold calls
	Coalesced int64 // holds that took the fast path instead of parking
	Parks     int64 // times a process yielded to the dispatch loop
	Resumes   int64 // coroutine resumes: first activations plus wakes
}

// Stats returns the kernel's work counters so far.
func (k *Kernel) Stats() Stats { return k.stats }

// NewKernel returns an empty simulator positioned at time 0.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Procs returns the live (spawned and not yet finished) processes, in
// spawn order. Finished processes are not retained by the kernel.
func (k *Kernel) Procs() []*Proc {
	var ps []*Proc
	for p := k.liveHead; p != nil; p = p.nextLive {
		ps = append(ps, p)
	}
	return ps
}

// alive appends p to the live list; spawn order is preserved so
// teardown and deadlock reports visit processes in the same order the
// retained-slice kernel did.
func (k *Kernel) alive(p *Proc) {
	p.prevLive = k.liveTail
	p.nextLive = nil
	if k.liveTail != nil {
		k.liveTail.nextLive = p
	} else {
		k.liveHead = p
	}
	k.liveTail = p
}

// unlive removes p from the live list at retirement.
func (k *Kernel) unlive(p *Proc) {
	if p.prevLive != nil {
		p.prevLive.nextLive = p.nextLive
	} else {
		k.liveHead = p.nextLive
	}
	if p.nextLive != nil {
		p.nextLive.prevLive = p.prevLive
	} else {
		k.liveTail = p.prevLive
	}
	p.prevLive, p.nextLive = nil, nil
}

// push schedules an event; at must be >= k.now. Events that reference
// a process pin its record (Proc.refs): the free list never reuses a
// record that a queued event could still wake.
func (k *Kernel) push(at Time, kind eventKind, p *Proc, fn func()) {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", at, k.now))
	}
	if p != nil {
		p.refs++
	}
	k.seq++
	k.events.push(event{at: at, seq: k.seq, kind: kind, proc: p, fn: fn})
}

// canCoalesce reports whether the running process may advance the clock
// by d ticks without parking: nothing else is scheduled at or before
// now+d (so no other event could dispatch first, and a same-time tie —
// which FIFO order says the freshly pushed wake would lose — cannot
// exist), and the dispatch budget has headroom to count the skipped
// event. This is also exported through Proc.CanCoalesce so higher layers
// can batch cost charging only when it is provably order-preserving.
func (k *Kernel) canCoalesce(d Time) bool {
	return k.running &&
		!k.DisableFastPath &&
		(k.events.Len() == 0 || k.events.min().at > k.now+d) &&
		(k.MaxEvents <= 0 || k.stats.Events < k.MaxEvents) &&
		// A pending interrupt must force the slow path: a compute-bound
		// proc coalescing holds never returns to dispatch, and dispatch
		// is where the interrupt is honoured.
		k.interrupt.Load() == nil &&
		// Never coalesce across a RunUntil horizon: the skipped wake
		// would land at or past the pause point, where a neighbouring
		// shard's merged posts may schedule competitors it must lose
		// FIFO ties to.
		(k.pauseAt == 0 || k.now+d < k.pauseAt)
}

// Spawn creates a new process named name running fn and schedules its
// first activation at the current time. It may be called before Run or
// from inside a running process.
//
// Handle lifetime: the Proc record is drawn from the kernel's free list
// and returns to it when the process finishes, so the returned *Proc
// may later name a different process. Callers that use the handle after
// the process has finished and other processes have been spawned
// (joining late, introspection, killing from a timer) must Pin it.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := k.takeProc()
	p.name = name
	p.fn = fn
	k.alive(p)
	k.live++
	if k.probe != nil {
		k.probe.ProcStart(k.cur, p)
	}
	k.push(k.now, evStart, p, nil)
	return p
}

// Schedule runs fn in kernel context after delay d. fn must not block;
// it may spawn processes, signal wait queues and schedule further
// callbacks. It runs on the dispatch loop itself, so a panic in fn is a
// kernel bug and propagates out of Run rather than becoming a ProcPanic.
func (k *Kernel) Schedule(d Time, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	k.push(k.now+d, evCall, nil, fn)
}

// ErrDeadlock is returned by Run when live processes remain but no event
// can ever wake them.
type ErrDeadlock struct {
	At      Time
	Blocked []string // names of blocked processes
}

func (e *ErrDeadlock) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%d; blocked: %s", e.At, strings.Join(e.Blocked, ", "))
}

// ErrEventLimit is returned by Run when MaxEvents is exceeded.
type ErrEventLimit struct{ Limit int64 }

func (e *ErrEventLimit) Error() string {
	return fmt.Sprintf("sim: event limit %d exceeded", e.Limit)
}

// ErrInterrupted is returned by Run after an Interrupt took effect.
// At is the virtual time the run was cut off at.
type ErrInterrupted struct {
	Reason string
	At     Time
}

func (e *ErrInterrupted) Error() string {
	return fmt.Sprintf("sim: interrupted at t=%d: %s", e.At, e.Reason)
}

// Interrupt asks a running kernel to stop, from any goroutine — the
// one operation on a Kernel that is safe to call concurrently with
// dispatch. The run ends at the next event boundary with the same full
// teardown as any error (every parked process unwinds, no goroutine
// outlives the run) and Run returns an *ErrInterrupted carrying reason.
// The cut-off point depends on when the call lands relative to the
// dispatch loop, so interrupted runs are not deterministic: callers
// must treat the partial state as unusable. Interrupting a kernel that
// is already finished, stopped or never started is a no-op.
func (k *Kernel) Interrupt(reason string) {
	k.interrupt.Store(&ErrInterrupted{Reason: reason})
}

// ErrStopped is returned by Run when the kernel has already terminated
// with an error. An error-terminated Run tears the simulation down —
// every parked process is unwound and retired — so there is no
// coherent state to resume from; the kernel is permanently dead and a
// new one must be built. (Re-Run after a nil-error Run remains valid:
// spawn more processes and call Run again.)
var ErrStopped = errors.New("sim: kernel stopped after error; create a new Kernel")

// ProcPanic wraps a panic raised inside a process body.
type ProcPanic struct {
	Proc  string
	Value any
}

func (e *ProcPanic) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v", e.Proc, e.Value)
}

// Run dispatches events until no process remains live and the event
// queue is empty, and returns nil; or returns the first error:
// a process panic, a deadlock, the event limit, or ErrStopped if a
// previous Run already failed.
//
// The calling goroutine is the dispatcher: it pops events and resumes
// each process's coroutine in turn. An error return is a full
// teardown: before Run returns, every parked process is unwound
// through its deferred functions and retired, and every coroutine has
// exited, so no goroutine outlives Run. The kernel is then permanently
// stopped (see ErrStopped).
func (k *Kernel) Run() error {
	if k.running {
		panic("sim: Kernel.Run is not reentrant")
	}
	if k.stopped {
		return ErrStopped
	}
	k.running = true
	defer func() { k.running = false }()
	k.dispatch()
	return k.err
}

// RunUntil dispatches events with timestamps strictly below horizon,
// then pauses, preserving every parked process and queued event so a
// later RunUntil (with a larger horizon) resumes seamlessly — the
// primitive the shard coordinator (ShardGroup) drives each lookahead
// window with. Within the dispatched prefix, event order is identical
// to an unwindowed Run: pausing stops the loop, it never reorders it.
//
// done=false means the kernel paused at the horizon. done=true means
// it will never dispatch again on its own: either the simulation
// completed (err == nil; spawning more work and running again remains
// valid) or it failed (err != nil; the kernel tore down exactly as
// under Run and is permanently stopped). A deadlock is not diagnosed
// locally — an empty queue with live processes pauses instead, because
// a neighbouring shard may still post the wake they are waiting for;
// the coordinator owns global deadlock detection.
func (k *Kernel) RunUntil(horizon Time) (done bool, err error) {
	if k.running {
		panic("sim: Kernel.RunUntil is not reentrant")
	}
	if k.stopped {
		return true, ErrStopped
	}
	if horizon <= k.now {
		panic(fmt.Sprintf("sim: RunUntil horizon %d is not after now %d", horizon, k.now))
	}
	k.running = true
	k.pauseAt = horizon
	defer func() {
		k.running = false
		k.pauseAt = 0
	}()
	if k.dispatch() {
		return false, nil
	}
	return true, k.err
}

// NextEventAt returns the timestamp of the earliest queued event;
// ok=false when the queue is empty. The shard coordinator uses it to
// compute each window's floor.
func (k *Kernel) NextEventAt() (Time, bool) {
	if k.events.Len() == 0 {
		return 0, false
	}
	return k.events.min().at, true
}

// Live returns the number of spawned and not yet finished processes.
func (k *Kernel) Live() int { return k.live }

// AbortPaused tears down a kernel that is not running — paused by
// RunUntil, or idle — from coordinator context: every parked process
// unwinds through its deferred functions exactly as an error-terminated
// Run unwinds it, and the kernel is left permanently stopped. The shard
// coordinator calls it on surviving shards after another shard fails or
// on global deadlock, so no goroutine outlives a failed sharded run.
// Aborting an already-stopped kernel is a no-op.
func (k *Kernel) AbortPaused() {
	if k.running {
		panic("sim: AbortPaused on a running kernel")
	}
	if k.stopped {
		return
	}
	k.teardown()
}

// dispatch is the event loop. It runs on the Run/RunUntil goroutine
// and returns when the run completes (k.err == nil), fails (k.err set,
// kernel torn down) or, under RunUntil, reaches the horizon — the one
// case it reports with paused=true, leaving every coroutine suspended
// where it is for the next window.
func (k *Kernel) dispatch() (paused bool) {
	k.err = nil
	for {
		if e := k.interrupt.Load(); e != nil {
			e.At = k.now
			k.fail(e)
			return false
		}
		if k.pauseAt > 0 {
			if n := k.events.Len(); (n == 0 && k.live > 0) || (n > 0 && k.events.min().at >= k.pauseAt) {
				return true
			}
		}
		if k.events.Len() == 0 {
			if k.live == 0 {
				// Completed: no coroutine may outlive the run. A later
				// Run starts fresh workers on demand.
				k.stopIdle()
			} else {
				k.fail(&ErrDeadlock{At: k.now, Blocked: k.blockedNames()})
			}
			return false
		}
		ev := k.events.pop()
		k.stats.Events++
		if k.MaxEvents > 0 && k.stats.Events > k.MaxEvents {
			k.fail(&ErrEventLimit{Limit: k.MaxEvents})
			return false
		}
		k.now = ev.at

		switch ev.kind {
		case evCall:
			ev.fn()
		case evStart:
			p := ev.proc
			p.refs--
			if p.killed {
				// Killed before first activation: retire without the
				// body ever running.
				p.state = stateDone
				k.live--
				k.unlive(p)
				p.joiners.broadcastLocked(k)
				k.maybeRecycle(p)
				continue
			}
			w := k.takeWorker()
			w.p = p
			p.w = w
			k.resume(p)
		case evWake:
			p := ev.proc
			p.refs--
			if p.state == stateDone {
				// Stale wake after completion: ignore. Dropping the
				// reference may make the retired record recyclable.
				k.maybeRecycle(p)
				continue
			}
			if p.state != stateWaiting {
				panic(fmt.Sprintf("sim: wake of process %q in state %v", p.name, p.state))
			}
			k.resume(p)
		}
		if k.err != nil {
			// A process body panicked (see Proc.run).
			k.teardown()
			return false
		}
	}
}

// resume switches to p's coroutine and returns when p parks or
// finishes. A worker whose process finished is idle again: it goes
// back on the pool, suspended at the top of its loop.
func (k *Kernel) resume(p *Proc) {
	w := p.w
	p.state = stateRunning
	k.cur = p
	k.stats.Resumes++
	w.next()
	k.cur = nil
	if p.state == stateDone {
		p.w = nil
		k.idle = append(k.idle, w)
	}
}

// fail records err as the run's outcome and tears the kernel down.
func (k *Kernel) fail(err error) {
	k.err = err
	k.teardown()
}

// teardown unwinds every parked process, in spawn order, by stopping
// its coroutine: the pending yield returns false and the park panics
// the errUnwind sentinel through the body, so its deferred functions
// run before the coroutine exits. One coroutine unwinds at a time, so
// unwinding defers may still touch kernel state. Idle workers are then
// stopped too, and the kernel is left permanently stopped. The
// waiting set is snapshotted first because retirement edits the live
// list.
func (k *Kernel) teardown() {
	k.stopped = true
	k.poisoned = true
	k.cur = nil
	var parked []*Proc
	for p := k.liveHead; p != nil; p = p.nextLive {
		if p.state == stateWaiting {
			parked = append(parked, p)
		}
	}
	for _, p := range parked {
		if w := p.w; w != nil && p.state == stateWaiting {
			p.w = nil
			w.stop()
		}
	}
	k.stopIdle()
}

// stopIdle ends every idle worker's coroutine.
func (k *Kernel) stopIdle() {
	for i, w := range k.idle {
		w.stop()
		k.idle[i] = nil
	}
	k.idle = k.idle[:0]
}

// blockedNames lists live processes for deadlock reports,
// alphabetically for stable output.
func (k *Kernel) blockedNames() []string {
	var names []string
	for p := k.liveHead; p != nil; p = p.nextLive {
		if p.state == stateWaiting {
			names = append(names, fmt.Sprintf("%s(id=%d)", p.name, p.id))
		}
	}
	sort.Strings(names)
	return names
}

// Dispatched returns the number of events dispatched so far (coalesced
// holds included).
func (k *Kernel) Dispatched() int64 { return k.stats.Events }

// Seq returns the event sequence counter — the total number of events
// ever pushed. Checkpoints record it alongside the clock so a restored
// kernel's FIFO tie-breaking resumes from the same position.
func (k *Kernel) Seq() int64 { return k.seq }

// Restore positions a fresh kernel at a checkpointed instant: virtual
// time now, sequence counter seq and dispatch count dispatched. Only a
// pristine kernel may be restored — never run, nothing spawned,
// nothing scheduled — because restore substitutes recorded history for
// live state rather than merging with it. Events and processes added
// after Restore behave as if the kernel had genuinely reached now.
func (k *Kernel) Restore(now Time, seq, dispatched int64) {
	if k.running || k.stopped || k.liveHead != nil || k.nextID > 0 || k.events.Len() > 0 || k.now != 0 {
		panic("sim: Restore needs a pristine kernel (never run, no procs, no events)")
	}
	if now < 0 || seq < 0 || dispatched < 0 {
		panic("sim: Restore with negative state")
	}
	k.now, k.seq, k.stats.Events = now, seq, dispatched
}
