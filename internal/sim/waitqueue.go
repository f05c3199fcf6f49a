package sim

// WaitQueue is a FIFO queue of parked processes. It is the building
// block for condition-style blocking (mailboxes, barriers, memory-bank
// queues, transaction retry lists). The zero value is ready to use.
type WaitQueue struct {
	waiters []*Proc
}

// Len returns the number of parked processes.
func (q *WaitQueue) Len() int { return len(q.waiters) }

// Wait parks p on the queue until a Signal or Broadcast releases it.
func (q *WaitQueue) Wait(p *Proc) {
	q.waiters = append(q.waiters, p)
	p.waitq = q
	p.park()
}

// Signal wakes the longest-waiting live process, if any, scheduling its
// resumption at the current time. It reports whether a process was woken.
// Killed or already-retired waiters are discarded, never woken: a
// signal must not be consumed by a process that will only unwind.
// Signal is safe from process bodies and kernel callbacks alike.
func (q *WaitQueue) Signal(k *Kernel) bool {
	for len(q.waiters) > 0 {
		p := q.waiters[0]
		copy(q.waiters, q.waiters[1:])
		q.waiters[len(q.waiters)-1] = nil
		q.waiters = q.waiters[:len(q.waiters)-1]
		p.waitq = nil
		if p.state == stateDone || p.killed {
			continue
		}
		if k.probe != nil && k.cur != nil {
			k.probe.Signal(k.cur, p)
		}
		k.push(k.now, evWake, p, nil)
		return true
	}
	return false
}

// Broadcast wakes every live parked process in FIFO order and returns
// the number woken. Killed or retired waiters are discarded uncounted.
func (q *WaitQueue) Broadcast(k *Kernel) int {
	n := 0
	for _, p := range q.waiters {
		p.waitq = nil
		if p.state == stateDone || p.killed {
			continue
		}
		if k.probe != nil && k.cur != nil {
			k.probe.Signal(k.cur, p)
		}
		k.push(k.now, evWake, p, nil)
		n++
	}
	for i := range q.waiters {
		q.waiters[i] = nil
	}
	q.waiters = q.waiters[:0]
	return n
}

// WaitTimeout parks p on the queue like Wait, but gives up after d
// ticks: if no Signal or Broadcast has released p by then, p is removed
// from the queue and resumed anyway. It reports whether p was released
// by a signal (false on timeout). Same-tick races are deterministic:
// whichever event — the releasing wake or the timeout callback — was
// pushed first wins, by the kernel's (time, seq) FIFO order. The timer
// closure allocates and captures p beyond this park (so p's record is
// pinned against reuse); timed waits are not part of the zero-alloc hot
// path; untimed Wait is unchanged.
func (q *WaitQueue) WaitTimeout(p *Proc, d Time) bool {
	if d < 0 {
		panic("sim: negative wait timeout")
	}
	p.noRecycle = true
	released := false
	timedOut := false
	p.k.Schedule(d, func() {
		if released {
			return // already signaled; possibly re-waiting — leave it be
		}
		for i, w := range q.waiters {
			if w != p {
				continue
			}
			copy(q.waiters[i:], q.waiters[i+1:])
			q.waiters[len(q.waiters)-1] = nil
			q.waiters = q.waiters[:len(q.waiters)-1]
			p.waitq = nil
			timedOut = true
			p.k.push(p.k.now, evWake, p, nil)
			return
		}
	})
	q.waiters = append(q.waiters, p)
	p.waitq = q
	p.park()
	released = true
	return !timedOut
}

// remove deletes p from the queue if present — retirement cleanup, so
// a recycled record can never be signaled by its old queue.
func (q *WaitQueue) remove(p *Proc) {
	for i, w := range q.waiters {
		if w != p {
			continue
		}
		copy(q.waiters[i:], q.waiters[i+1:])
		q.waiters[len(q.waiters)-1] = nil
		q.waiters = q.waiters[:len(q.waiters)-1]
		return
	}
}

// broadcastLocked is Broadcast for kernel-internal use (process
// completion wakes joiners).
func (q *WaitQueue) broadcastLocked(k *Kernel) { q.Broadcast(k) }
