// Package msgpass implements the STAMP message-passing substrate:
// mailbox endpoints with the paper's intra-/inter-processor message
// delays (L_a, L_e) and bandwidth factors (g_mp_a, g_mp_e). Delivery is
// FIFO per sender-receiver pair and messages become receivable exactly
// at their arrival time in virtual time.
package msgpass

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Agent is the sending/receiving process as the network sees it (the
// STAMP core's execution context implements it).
type Agent interface {
	Proc() *sim.Proc
	Thread() machine.ThreadID
	Counters() *energy.Counters
	// ChargeCost charges virtual time with deterministic per-category
	// fractional carry, attributing materialized ticks to cat.
	ChargeCost(cat obs.Category, ticks float64)
	// Profile returns the process's virtual-time profile sink, or nil
	// when profiling is disabled (the nil profile is a no-op).
	Profile() *obs.ProcProfile
}

// FaultAction is a fault injector's decision about one message
// transfer.
type FaultAction uint8

const (
	// FaultNone delivers the message normally.
	FaultNone FaultAction = iota
	// FaultDrop loses the message in flight: the sender is charged
	// injection occupancy as usual, but nothing ever arrives.
	FaultDrop
	// FaultDup delivers the message twice (two identical copies, same
	// arrival time; FIFO order puts them adjacent in the inbox).
	FaultDup
	// FaultDelay delivers the message after extra in-flight latency.
	FaultDelay
)

// FaultInjector intercepts every message transfer on a Network.
// Implementations must be deterministic functions of virtual-time
// state — internal/fault provides a seeded one — and are consulted
// inside the simulation's single-goroutine discipline, so they need no
// locking.
type FaultInjector interface {
	// OnSend classifies the transfer of m from src to dst, returning
	// the action and, for FaultDelay, the extra latency in ticks.
	OnSend(src, dst *Endpoint, m *Message) (FaultAction, sim.Time)
}

// SetFaultInjector installs inj on the network; nil disables
// injection. With no injector the send path is exactly the fault-free
// one.
func (n *Network) SetFaultInjector(inj FaultInjector) { n.faults = inj }

// Message is a delivered payload plus provenance.
type Message struct {
	From    *Endpoint
	Payload any
	// Words is the message size for long-message (LogGP-style)
	// bandwidth charging; 0 or 1 means a minimal message.
	Words   int
	SentAt  sim.Time
	Arrived sim.Time

	// hb is the probe's happens-before token, stamped at send and
	// redeemed at receive (0 = no probe was attached at send time). It
	// rides inside the message so the edge survives delivery delays,
	// duplication and reordering across endpoints.
	hb uint64
}

// Probe observes message transfers for happens-before tracking. The
// race detector (internal/racedet) is the one implementation; it must
// be passive (no holds, no blocking).
type Probe interface {
	// MsgSend fires when p sends a message from src to dst, before
	// delivery is scheduled. The returned token (must be nonzero) is
	// carried by the message and passed to MsgRecv on receipt; a
	// dropped message's token is simply never redeemed, a duplicated
	// message's token is redeemed twice.
	MsgSend(src, dst *Endpoint, p *sim.Proc) uint64
	// MsgRecv fires when p receives a message carrying token at dst.
	MsgRecv(dst *Endpoint, p *sim.Proc, token uint64)
}

// SetProbe attaches a transfer probe to the network (nil detaches).
// Attach before the simulation runs.
func (n *Network) SetProbe(pr Probe) { n.probe = pr }

// DeliveryRecorder observes scheduled deliveries for checkpointing: a
// message is "in flight" from the instant delivery is scheduled until
// the delivery event fires. The checkpoint layer (internal/ckpt) is the
// one implementation; it must be passive. Depart returns a nonzero
// token; Land redeems it when the message arrives.
type DeliveryRecorder interface {
	Depart(dst *Endpoint, m *Message, arrive sim.Time) uint64
	Land(token uint64)
}

// SetDeliveryRecorder installs rec on the network; nil disables
// recording. With no recorder the delivery path is byte-identical to
// the unrecorded one.
func (n *Network) SetDeliveryRecorder(rec DeliveryRecorder) { n.recorder = rec }

// ObserverFree reports that no fault injector, probe or delivery
// recorder is installed — the precondition for routing traffic across
// kernel shards (observers are consulted synchronously in sender
// context and would race between concurrently-dispatching shards).
func (n *Network) ObserverFree() bool {
	return n.faults == nil && n.probe == nil && n.recorder == nil
}

// Network is the message-passing subsystem of one simulated machine.
// On a sharded machine (machine.NewSharded) all mutable counter state
// lives in per-shard partials so that shards running concurrently
// within a lookahead window never touch shared memory; the public
// accessors fold the partials. The folds are exact for the stock cost
// tables because every g value is integral (float64 addition over
// integers is associative below 2^53); fractional g values would make
// the folded occupancy differ from a sequential run's by rounding
// order, not by model semantics.
type Network struct {
	m *machine.Machine

	endpoints []*Endpoint

	faults   FaultInjector
	probe    Probe
	recorder DeliveryRecorder

	// shards holds the counter partials: one entry for an unsharded
	// machine, one per shard otherwise. shardIdx maps each shard kernel
	// to its index (nil when unsharded).
	shards   []netShard
	shardIdx map[*sim.Kernel]int
}

// netShard is the per-shard slice of the network's mutable state. Each
// field is only ever touched from its own shard's kernel context (or
// from coordinator context between windows), so no locking is needed.
// Send-side charges (wire, injection occupancy, fault counters) belong
// to the sending process's shard; delivery-side state (delivered,
// maxInbox, the delivery-record pool) and drain occupancy belong to
// the receiving endpoint's shard.
type netShard struct {
	delivered int64
	wireTicks sim.Time // summed in-flight latency of all messages
	occupancy float64  // summed sender/receiver bandwidth charges
	maxInbox  int      // deepest inbox observed at any delivery

	dropped    int64
	duplicated int64
	delayed    int64
	faultDelay sim.Time // summed extra latency of delayed messages

	// freeDeliveries recycles in-flight delivery records (see
	// deliverLocal): at steady state an intra-shard send schedules its
	// arrival without allocating a closure or a boxed Message.
	freeDeliveries []*delivery
}

// New creates the network for machine m.
func New(m *machine.Machine) *Network {
	n := &Network{m: m}
	if sg := m.Shards(); sg != nil {
		n.shards = make([]netShard, sg.NumShards())
		n.shardIdx = make(map[*sim.Kernel]int, sg.NumShards())
		for i := 0; i < sg.NumShards(); i++ {
			n.shardIdx[sg.Shard(i)] = i
		}
	} else {
		n.shards = make([]netShard, 1)
	}
	return n
}

// shardFor returns the counter partial owned by kernel k's shard.
func (n *Network) shardFor(k *sim.Kernel) *netShard {
	if len(n.shards) == 1 {
		return &n.shards[0]
	}
	return &n.shards[n.shardIdx[k]]
}

// Machine returns the backing machine.
func (n *Network) Machine() *machine.Machine { return n.m }

// Delivered returns the total number of messages delivered so far.
func (n *Network) Delivered() int64 {
	var t int64
	for i := range n.shards {
		t += n.shards[i].delivered
	}
	return t
}

// WireTicks returns the summed in-flight latency (L plus long-message
// serialization) of every message sent so far.
func (n *Network) WireTicks() sim.Time {
	var t sim.Time
	for i := range n.shards {
		t += n.shards[i].wireTicks
	}
	return t
}

// OccupancyTicks returns the summed bandwidth (g) occupancy charged to
// senders and receivers, in fractional ticks.
func (n *Network) OccupancyTicks() float64 {
	var t float64
	for i := range n.shards {
		t += n.shards[i].occupancy
	}
	return t
}

// MaxInboxDepth returns the deepest mailbox backlog observed at any
// delivery instant — a router/endpoint congestion indicator.
func (n *Network) MaxInboxDepth() int {
	t := 0
	for i := range n.shards {
		if n.shards[i].maxInbox > t {
			t = n.shards[i].maxInbox
		}
	}
	return t
}

// Dropped returns the number of messages lost by fault injection.
func (n *Network) Dropped() int64 {
	var t int64
	for i := range n.shards {
		t += n.shards[i].dropped
	}
	return t
}

// Duplicated returns the number of messages duplicated by fault
// injection (each adds one extra delivery).
func (n *Network) Duplicated() int64 {
	var t int64
	for i := range n.shards {
		t += n.shards[i].duplicated
	}
	return t
}

// Delayed returns the number of messages given extra latency by fault
// injection.
func (n *Network) Delayed() int64 {
	var t int64
	for i := range n.shards {
		t += n.shards[i].delayed
	}
	return t
}

// FaultDelayTicks returns the summed extra in-flight latency injected
// into delayed messages.
func (n *Network) FaultDelayTicks() sim.Time {
	var t sim.Time
	for i := range n.shards {
		t += n.shards[i].faultDelay
	}
	return t
}

// Endpoint is one process's mailbox. Create one per process with the
// hardware thread the process is bound to.
type Endpoint struct {
	net    *Network
	name   string
	idx    int // registration index within net
	thread machine.ThreadID
	k      *sim.Kernel // where the owner parks and deliveries land
	inbox  []Message
	rq     sim.WaitQueue // blocked receivers
}

// NewEndpoint registers a mailbox owned by a process on hardware
// thread t. On a sharded machine the endpoint is homed on the shard
// owning t; if the owning process actually runs elsewhere (a demoted
// group), rebind with BindKernel before any traffic flows.
func (n *Network) NewEndpoint(name string, t machine.ThreadID) *Endpoint {
	if int(t) < 0 || int(t) >= n.m.Cfg.NumThreads() {
		panic(fmt.Sprintf("msgpass: endpoint thread %d out of range", t))
	}
	ep := &Endpoint{net: n, name: name, idx: len(n.endpoints), thread: t, k: n.m.KernelFor(t)}
	n.endpoints = append(n.endpoints, ep)
	return ep
}

// BindKernel re-homes the endpoint's delivery/wake kernel. Receiver
// wakes are scheduled on this kernel, so it must be the kernel the
// owning process parks on. The core calls this when it places a group
// on a kernel other than the thread's home shard (demotion to the
// coordinator). Call before any traffic touches the endpoint.
func (e *Endpoint) BindKernel(k *sim.Kernel) { e.k = k }

// Kernel returns the kernel deliveries to e land on.
func (e *Endpoint) Kernel() *sim.Kernel { return e.k }

// Rebind moves the endpoint to hardware thread t: transfers sent after
// the rebind pay the link costs of the new coordinates. The delivery
// kernel is deliberately untouched — a live migration (core.Ctx.Rebind)
// happens under the kernel the owning process already parks on, and
// messages already in flight were costed at send time against the old
// coordinates, exactly as a wire transfer that departed before the move.
func (e *Endpoint) Rebind(t machine.ThreadID) {
	if int(t) < 0 || int(t) >= e.net.m.Cfg.NumThreads() {
		panic(fmt.Sprintf("msgpass: endpoint rebind thread %d out of range", t))
	}
	e.thread = t
}

// Index returns the endpoint's registration index — the stable
// coordinate checkpoints use in place of the pointer.
func (e *Endpoint) Index() int { return e.idx }

// NumEndpoints returns how many endpoints have been registered.
func (n *Network) NumEndpoints() int { return len(n.endpoints) }

// Endpoint returns the i'th registered endpoint.
func (n *Network) Endpoint(i int) *Endpoint { return n.endpoints[i] }

// Name returns the endpoint name.
func (e *Endpoint) Name() string { return e.name }

// Thread returns the owning hardware thread.
func (e *Endpoint) Thread() machine.ThreadID { return e.thread }

// Pending returns the number of messages already arrived and not yet
// received.
func (e *Endpoint) Pending() int { return len(e.inbox) }

// delay and bandwidth class for a transfer from thread a to thread b —
// the machine's hierarchical tier (same core, same chip, same cluster,
// cross-cluster; flat machines collapse to the original two tiers).
func (n *Network) linkCosts(a, b machine.ThreadID) (delay sim.Time, g float64, intra bool) {
	return n.m.Cfg.MsgLink(a, b)
}

// Send transmits payload from agent a to endpoint dst without blocking
// for delivery: the sender is charged the bandwidth (occupancy) cost and
// continues; the message arrives L ticks later. It returns the arrival
// time.
func (e *Endpoint) Send(a Agent, dst *Endpoint, payload any) sim.Time {
	return e.SendSized(a, dst, payload, 1)
}

// SendSized is Send for a long message of `words` payload words. Per
// the LogGP extension, injection occupies the sender for an extra
// (words−1)·G_word and the wire for the same, so the arrival time is
// L + (words−1)·G_word after the send instant.
func (e *Endpoint) SendSized(a Agent, dst *Endpoint, payload any, words int) sim.Time {
	if dst == nil {
		panic("msgpass: send to nil endpoint")
	}
	if words < 1 {
		words = 1
	}
	delay, g, intra := e.net.linkCosts(a.Thread(), dst.thread)
	if intra {
		a.Counters().SendsIntra++
	} else {
		a.Counters().SendsInter++
	}
	extra := float64(words-1) * e.net.m.Cfg.Costs.GMpWord
	// The message departs at the send instant; the bandwidth charge g
	// (plus the long-message serialization) is sender occupancy, paid
	// after injection (the model adds the L and g terms independently
	// in T_S-round).
	p := a.Proc()
	m := Message{From: e, Payload: payload, Words: words, SentAt: p.Now()}
	if pr := e.net.probe; pr != nil {
		m.hb = pr.MsgSend(e, dst, p)
	}
	wire := delay + sim.Time(extra)
	arrive := m.SentAt + wire

	// All send-side charges go to the sending process's shard — the
	// kernel context this code is executing in.
	ns := e.net.shardFor(p.Kernel())

	action, faultExtra := FaultNone, sim.Time(0)
	if e.net.faults != nil {
		action, faultExtra = e.net.faults.OnSend(e, dst, &m)
	}
	switch action {
	case FaultDrop:
		// Lost in flight. The sender cannot tell: it pays occupancy and
		// the returned arrival time is when the message would have
		// arrived.
		ns.dropped++
	case FaultDup:
		ns.duplicated++
		e.net.deliverFrom(p.Kernel(), ns, dst, m, wire)
		e.net.deliverFrom(p.Kernel(), ns, dst, m, wire)
		ns.wireTicks += 2 * wire
	case FaultDelay:
		if faultExtra < 0 {
			panic("msgpass: negative fault delay")
		}
		ns.delayed++
		ns.faultDelay += faultExtra
		arrive += faultExtra
		e.net.deliverFrom(p.Kernel(), ns, dst, m, wire+faultExtra)
		ns.wireTicks += wire + faultExtra
	default:
		e.net.deliverFrom(p.Kernel(), ns, dst, m, wire)
		ns.wireTicks += wire
	}
	ns.occupancy += g + extra
	// Injection occupancy may be fractional; ChargeCost both advances
	// the clock and attributes exactly the ticks it materializes, so
	// sender occupancy shows up under msgwait instead of being measured
	// as an (empty) elapsed-time window.
	a.ChargeCost(obs.CatMsgWait, g+extra)
	return arrive
}

// SendSync transmits like Send but blocks the sender until the message
// has arrived at dst — the paper's synch_comm behaviour for message
// passing ("blocked processes in message passing").
func (e *Endpoint) SendSync(a Agent, dst *Endpoint, payload any) {
	arrive := e.Send(a, dst, payload)
	p := a.Proc()
	if wait := arrive - p.Now(); wait > 0 {
		p.Hold(wait)
		a.Profile().Charge(obs.CatMsgWait, wait)
	}
}

// delivery is one scheduled in-flight message. Records are pooled per
// shard (netShard.freeDeliveries) and their kernel callback (run) is
// bound once at creation, so a steady-state intra-shard send schedules
// its arrival with no per-message allocation — the closure the
// callback used to be cost one closure plus a boxed Message copy per
// send.
type delivery struct {
	n   *Network
	ns  *netShard // pool the record recycles into (dst's shard)
	dst *Endpoint
	m   Message
	tok uint64
	run func() // d.deliver, bound once; reused across recycles
}

// deliver lands the message: it returns the record to the pool first
// (nothing below can schedule a new delivery synchronously), then
// appends to the inbox and wakes a blocked receiver.
func (d *delivery) deliver() {
	n, ns, dst, m, tok := d.n, d.ns, d.dst, d.m, d.tok
	d.ns, d.dst, d.m, d.tok = nil, nil, Message{}, 0
	ns.freeDeliveries = append(ns.freeDeliveries, d)

	k := dst.k
	m.Arrived = k.Now()
	dst.inbox = append(dst.inbox, m)
	if len(dst.inbox) > ns.maxInbox {
		ns.maxInbox = len(dst.inbox)
	}
	ns.delivered++
	if tok != 0 {
		n.recorder.Land(tok)
	}
	dst.rq.Signal(k)
}

// deliverFrom schedules the arrival of m at dst after delay, from a
// send executing on kernel src (ns is src's counter partial). When
// sender and receiver share a kernel this is the pooled local path;
// otherwise the arrival crosses shards as a buffered lookahead post.
func (n *Network) deliverFrom(src *sim.Kernel, ns *netShard, dst *Endpoint, m Message, delay sim.Time) {
	if src == dst.k {
		n.deliverLocal(dst, m, delay)
		return
	}
	// Cross-shard: observers are consulted synchronously in sender
	// context and would race (or observe out-of-window state) across
	// shards, so a sharded run must be observer-free on cross-shard
	// routes. Groups with observers installed are demoted to one shard
	// by the core, which makes every send local; reaching this panic
	// means an endpoint was rebound inconsistently.
	if n.faults != nil || n.probe != nil || n.recorder != nil {
		panic("msgpass: cross-shard send with a fault injector, probe or delivery recorder installed")
	}
	// The cross-shard path allocates (one closure + boxed Message per
	// send) — the price of leaving the shard; intra-shard traffic stays
	// on the pooled path.
	n.m.Shards().Post(n.shardIdx[src], n.shardIdx[dst.k], src.Now()+delay, func() {
		n.landCross(dst, m)
	})
}

// landCross lands a cross-shard message in dst's shard kernel context
// at its arrival time (the posted event's dispatch).
func (n *Network) landCross(dst *Endpoint, m Message) {
	k := dst.k
	ns := n.shardFor(k)
	m.Arrived = k.Now()
	dst.inbox = append(dst.inbox, m)
	if len(dst.inbox) > ns.maxInbox {
		ns.maxInbox = len(dst.inbox)
	}
	ns.delivered++
	dst.rq.Signal(k)
}

// deliverLocal schedules the arrival of m at dst after delay on dst's
// own kernel — the path for intra-shard sends (delay relative to the
// shared clock) and coordinator-context restores.
func (n *Network) deliverLocal(dst *Endpoint, m Message, delay sim.Time) {
	k := dst.k
	ns := n.shardFor(k)
	var tok uint64
	if n.recorder != nil {
		tok = n.recorder.Depart(dst, &m, k.Now()+delay)
	}
	var d *delivery
	if l := len(ns.freeDeliveries); l > 0 {
		d = ns.freeDeliveries[l-1]
		ns.freeDeliveries[l-1] = nil
		ns.freeDeliveries = ns.freeDeliveries[:l-1]
	} else {
		d = &delivery{n: n}
		d.run = d.deliver
	}
	d.ns, d.dst, d.m, d.tok = ns, dst, m, tok
	k.Schedule(delay, d.run)
}

// InboxMessage is a Message with its sender pointer replaced by the
// sender's endpoint index — the serializable form checkpoints store for
// both parked inbox contents and in-flight deliveries. The
// happens-before probe token is intentionally not preserved: the race
// detector and checkpointing address different runs (detection is a
// property of the uninterrupted execution), so tokens do not survive a
// restore.
type InboxMessage struct {
	From    int
	Payload any
	Words   int
	SentAt  sim.Time
	Arrived sim.Time
}

// SnapshotInbox returns the arrived-but-unreceived messages of e in
// FIFO order, in serializable form.
func (e *Endpoint) SnapshotInbox() []InboxMessage {
	if len(e.inbox) == 0 {
		return nil
	}
	out := make([]InboxMessage, len(e.inbox))
	for i, m := range e.inbox {
		out[i] = InboxMessage{
			From: m.From.idx, Payload: m.Payload, Words: m.Words,
			SentAt: m.SentAt, Arrived: m.Arrived,
		}
	}
	return out
}

// RestoreInbox replaces e's inbox with msgs (FIFO order preserved).
// Sender indices must refer to endpoints already registered on e's
// network.
func (e *Endpoint) RestoreInbox(msgs []InboxMessage) {
	e.inbox = e.inbox[:0]
	for _, im := range msgs {
		if im.From < 0 || im.From >= len(e.net.endpoints) {
			panic(fmt.Sprintf("msgpass: RestoreInbox sender index %d out of range", im.From))
		}
		e.inbox = append(e.inbox, Message{
			From: e.net.endpoints[im.From], Payload: im.Payload, Words: im.Words,
			SentAt: im.SentAt, Arrived: im.Arrived,
		})
	}
}

// ScheduleDelivery re-injects a checkpointed in-flight message: arrival
// of im at dst at absolute virtual time arrive. It routes through the
// normal delivery path, so the arrival counts toward the delivery
// statistics (as the original arrival would have) and is re-recorded by
// any installed DeliveryRecorder (so a later checkpoint sees it in
// flight again). The wire/occupancy charges are NOT re-applied — they
// were paid at the original send instant and live in the restored
// counter state.
func (n *Network) ScheduleDelivery(dst *Endpoint, im InboxMessage, arrive sim.Time) {
	if im.From < 0 || im.From >= len(n.endpoints) {
		panic(fmt.Sprintf("msgpass: ScheduleDelivery sender index %d out of range", im.From))
	}
	delay := arrive - dst.k.Now()
	if delay < 0 {
		panic("msgpass: ScheduleDelivery arrival in the past")
	}
	m := Message{From: n.endpoints[im.From], Payload: im.Payload, Words: im.Words, SentAt: im.SentAt}
	n.deliverLocal(dst, m, delay)
}

// NetState is the network's counter state in serializable form.
type NetState struct {
	Delivered  int64
	WireTicks  sim.Time
	Occupancy  float64
	MaxInbox   int
	Dropped    int64
	Duplicated int64
	Delayed    int64
	FaultDelay sim.Time
}

// State returns the network counters for checkpointing. The per-shard
// partials are folded: checkpoints store global sums, not the
// attribution, which is an implementation detail of parallel windows.
func (n *Network) State() NetState {
	return NetState{
		Delivered: n.Delivered(), WireTicks: n.WireTicks(), Occupancy: n.OccupancyTicks(),
		MaxInbox: n.MaxInboxDepth(), Dropped: n.Dropped(), Duplicated: n.Duplicated(),
		Delayed: n.Delayed(), FaultDelay: n.FaultDelayTicks(),
	}
}

// RestoreState overwrites the network counters from a checkpoint: the
// restored sums land on shard 0's partial and the rest are zeroed, so
// subsequent folds start from exactly the checkpointed totals.
func (n *Network) RestoreState(s NetState) {
	for i := range n.shards {
		fd := n.shards[i].freeDeliveries
		n.shards[i] = netShard{freeDeliveries: fd}
	}
	ns := &n.shards[0]
	ns.delivered, ns.wireTicks, ns.occupancy = s.Delivered, s.WireTicks, s.Occupancy
	ns.maxInbox, ns.dropped, ns.duplicated = s.MaxInbox, s.Dropped, s.Duplicated
	ns.delayed, ns.faultDelay = s.Delayed, s.FaultDelay
}

// Recv blocks agent a until a message is available in its endpoint e,
// then removes and returns the oldest one, charging receive cost.
func (e *Endpoint) Recv(a Agent) Message {
	p := a.Proc()
	t0 := p.Now()
	for len(e.inbox) == 0 {
		before := p.Now()
		e.rq.Wait(p)
		a.Counters().QueueWait += p.Now() - before
	}
	return e.take(a, p, t0)
}

// RecvTimeout is Recv with a deadline: it blocks until a message is
// available or d ticks elapse, whichever comes first, and reports
// which. The timed-out wait is counted in the QueueWait counter but
// NOT charged to the profile — the caller knows why it was waiting and
// charges the category itself (internal/fault's reliable layer charges
// CatFault, keeping recovery overhead separate from productive message
// waits). Same-tick arrival-versus-expiry races resolve
// deterministically by kernel event order.
func (e *Endpoint) RecvTimeout(a Agent, d sim.Time) (Message, bool) {
	if d < 0 {
		panic("msgpass: negative receive timeout")
	}
	p := a.Proc()
	t0 := p.Now()
	deadline := t0 + d
	for len(e.inbox) == 0 {
		remain := deadline - p.Now()
		if remain <= 0 {
			return Message{}, false
		}
		before := p.Now()
		signaled := e.rq.WaitTimeout(p, remain)
		a.Counters().QueueWait += p.Now() - before
		if !signaled && len(e.inbox) == 0 {
			return Message{}, false
		}
	}
	return e.take(a, p, t0), true
}

// take dequeues the oldest arrived message and charges receive cost:
// the blocked window since t0 is msgwait, and the drain occupancy g
// (possibly fractional) goes through ChargeCost so it is attributed
// exactly, with per-category carry.
func (e *Endpoint) take(a Agent, p *sim.Proc, t0 sim.Time) Message {
	m := e.inbox[0]
	copy(e.inbox, e.inbox[1:])
	e.inbox[len(e.inbox)-1] = Message{}
	e.inbox = e.inbox[:len(e.inbox)-1]

	_, g, intra := e.net.linkCosts(m.From.thread, e.thread)
	if intra {
		a.Counters().RecvsIntra++
	} else {
		a.Counters().RecvsInter++
	}
	extra := 0.0
	if m.Words > 1 {
		extra = float64(m.Words-1) * e.net.m.Cfg.Costs.GMpWord
	}
	// Drain occupancy belongs to the receiving process's shard — again
	// the executing kernel context.
	e.net.shardFor(p.Kernel()).occupancy += g + extra
	a.Profile().Charge(obs.CatMsgWait, p.Now()-t0)
	a.ChargeCost(obs.CatMsgWait, g+extra)
	if pr := e.net.probe; pr != nil && m.hb != 0 {
		pr.MsgRecv(e, p, m.hb)
	}
	return m
}

// TryRecv returns the oldest arrived message without blocking; ok is
// false if none has arrived.
func (e *Endpoint) TryRecv(a Agent) (Message, bool) {
	if len(e.inbox) == 0 {
		return Message{}, false
	}
	return e.Recv(a), true
}

// RecvN receives exactly n messages, blocking as needed.
func (e *Endpoint) RecvN(a Agent, n int) []Message {
	return e.RecvNInto(a, n, make([]Message, 0, n))
}

// RecvNInto is RecvN into caller-owned storage: it receives exactly n
// messages, appends them to buf[:0] and returns the result, so a caller
// that passes the previous round's batch back in receives without
// allocating.
func (e *Endpoint) RecvNInto(a Agent, n int, buf []Message) []Message {
	buf = buf[:0]
	for len(buf) < n {
		buf = append(buf, e.Recv(a))
	}
	return buf
}

// Broadcast sends payload from agent a (owner of e) to every endpoint
// in dsts, skipping e itself.
func (e *Endpoint) Broadcast(a Agent, dsts []*Endpoint, payload any) {
	for _, d := range dsts {
		if d == e {
			continue
		}
		e.Send(a, d, payload)
	}
}
