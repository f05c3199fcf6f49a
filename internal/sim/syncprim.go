package sim

// Barrier is a reusable synchronization barrier for a fixed party count.
// The last arriving process releases all waiters; the barrier then
// resets for the next phase.
type Barrier struct {
	k       *Kernel
	parties int
	arrived int
	gen     int64
	q       WaitQueue
}

// NewBarrier returns a barrier for parties processes (parties >= 1).
func NewBarrier(k *Kernel, parties int) *Barrier {
	if parties < 1 {
		panic("sim: barrier needs at least one party")
	}
	return &Barrier{k: k, parties: parties}
}

// Generation returns how many times the barrier has tripped.
func (b *Barrier) Generation() int64 { return b.gen }

// RestoreGeneration resets the trip counter to gen. Checkpoint restore
// uses it so a resumed run's barrier coordinates (race-detector edges,
// introspection) match the uninterrupted run's. The barrier must be
// idle: a checkpoint's consistency point is after a trip, never inside
// one.
func (b *Barrier) RestoreGeneration(gen int64) {
	if b.arrived != 0 {
		panic("sim: RestoreGeneration with arrivals in progress")
	}
	if gen < 0 {
		panic("sim: negative barrier generation")
	}
	b.gen = gen
}

// Await blocks p until all parties have arrived. It returns true for
// the process that tripped the barrier (the last arriver).
func (b *Barrier) Await(p *Proc) bool {
	b.arrived++
	if b.arrived == b.parties {
		b.arrived = 0
		b.gen++
		// The last arriver's probe hook runs before the broadcast so
		// that the release signals it emits already carry the whole
		// generation's accumulated order.
		if pr := b.k.probe; pr != nil {
			pr.BarrierAwait(b, p, true)
		}
		b.q.Broadcast(b.k)
		return true
	}
	if pr := b.k.probe; pr != nil {
		pr.BarrierAwait(b, p, false)
	}
	b.q.Wait(p)
	return false
}

// Semaphore is a counting semaphore with FIFO wakeup.
type Semaphore struct {
	k       *Kernel
	permits int
	q       WaitQueue
}

// NewSemaphore returns a semaphore holding permits initial permits.
func NewSemaphore(k *Kernel, permits int) *Semaphore {
	if permits < 0 {
		panic("sim: negative semaphore permits")
	}
	return &Semaphore{k: k, permits: permits}
}

// Acquire takes one permit, blocking p until one is available.
func (s *Semaphore) Acquire(p *Proc) {
	for s.permits == 0 {
		s.q.Wait(p)
	}
	s.permits--
}

// TryAcquire takes a permit without blocking and reports success.
func (s *Semaphore) TryAcquire() bool {
	if s.permits == 0 {
		return false
	}
	s.permits--
	return true
}

// Release returns one permit and wakes a waiter if any.
func (s *Semaphore) Release() {
	s.permits++
	s.q.Signal(s.k)
}

// Available returns the number of free permits.
func (s *Semaphore) Available() int { return s.permits }

// Mutex is a binary semaphore with owner tracking.
type Mutex struct {
	k     *Kernel
	owner *Proc
	q     WaitQueue
}

// NewMutex returns an unlocked mutex.
func NewMutex(k *Kernel) *Mutex { return &Mutex{k: k} }

// Lock blocks p until it owns the mutex.
func (m *Mutex) Lock(p *Proc) {
	for m.owner != nil {
		m.q.Wait(p)
	}
	m.owner = p
}

// Unlock releases the mutex; p must be the owner.
func (m *Mutex) Unlock(p *Proc) {
	if m.owner != p {
		panic("sim: unlock by non-owner")
	}
	m.owner = nil
	m.q.Signal(m.k)
}

// Locked reports whether the mutex is currently held.
func (m *Mutex) Locked() bool { return m.owner != nil }
