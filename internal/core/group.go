package core

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Group is a set of STAMP processes spawned together with common
// attributes — the paper's "parallel or distributed STAMPs" whose
// aggregate complexity follows rule 5 of §3.1 (T = max, E = sum,
// P = E/T).
type Group struct {
	sys       *System
	name      string
	attrs     Attrs
	n         int
	ctxs      []*Ctx
	k         *sim.Kernel // where members spawn: a shard, or sys.K
	bar       *sim.Barrier
	placement Placement

	// profPub is the profiler total vector last published on the event
	// stream (at a barrier generation); the next EvProfile event carries
	// the delta since. Only touched by the simulation goroutine, and only
	// while a stream is attached.
	profPub obs.CatTimes
}

// GroupOption configures a group at spawn time.
type GroupOption func(*groupConfig)

type groupConfig struct {
	placement  Placement
	startOrder []int
	byShard    bool
}

// WithPlacement overrides the default distribution-attribute placement
// with an explicit thread assignment (len must equal the group size).
// The power-aware allocator in internal/sched produces such placements.
func WithPlacement(pl Placement) GroupOption {
	return func(gc *groupConfig) { gc.placement = pl }
}

// ShardByPlacement opts the group into shard-homed execution: on a
// sharded System, the group's processes spawn on the kernel shard
// owning their placement's chip, so the group advances concurrently
// with groups on other shards (under the conservative lookahead
// window; see sim.ShardGroup). The contract:
//
//   - every member must be placed on the same shard (same chip, or
//     chips mapped to one shard) — a spanning placement panics;
//   - the group communicates only by message passing; shared memory
//     and STM are coordinator-only and panic from a shard-homed
//     process;
//   - messages it exchanges with groups on other shards must cross a
//     chip boundary (the lookahead is the minimum cross-chip delay);
//   - a parent on another kernel cannot Await it.
//
// When the system is unsharded, or carries observers that require the
// single-kernel discipline (tracer, obs sinks, fault injection, race
// probe, checkpoint recorder), the option quietly demotes to the
// coordinator kernel: results are identical either way — sharding
// changes where work runs, never what it computes.
func ShardByPlacement() GroupOption {
	return func(gc *groupConfig) { gc.byShard = true }
}

// WithStartOrder overrides the order in which member processes are
// spawned (and therefore first activate) with a permutation of member
// ranks. Contexts, mailboxes and profiles are still created in rank
// order — only process start order changes. Checkpoint restore uses
// this to reproduce the contribution order recorded at the snapshot,
// so the resumed schedule's FIFO tie-breaking matches the original
// run's.
func WithStartOrder(order []int) GroupOption {
	return func(gc *groupConfig) { gc.startOrder = order }
}

// NewGroup spawns n STAMP processes running body with the given
// attributes. body receives each member's Ctx; member ranks are
// ctx.Index() ∈ [0, n). Processes start at the current virtual time.
func (sys *System) NewGroup(name string, attrs Attrs, n int, body func(ctx *Ctx)) *Group {
	return sys.NewGroupOpts(name, attrs, n, body)
}

// NewGroupOpts is NewGroup with options.
func (sys *System) NewGroupOpts(name string, attrs Attrs, n int, body func(ctx *Ctx), opts ...GroupOption) *Group {
	g, order := sys.newGroupShell(name, attrs, n, opts)
	for j := 0; j < n; j++ {
		i := j
		if order != nil {
			i = order[j]
		}
		ctx := g.ctxs[i]
		pname := fmt.Sprintf("%s/%d", name, i)
		ctx.p = g.k.Spawn(pname, func(p *sim.Proc) {
			ctx.start = p.Now()
			if s := ctx.restoreSnap; s != nil {
				ctx.restoreSnap = nil
				ctx.applyRestore(s)
			}
			if tr := sys.Obs.Tracer(); tr.Enabled() {
				ctx.procSpan = tr.Begin(ctx.start, pname, "proc", pname, 0)
			}
			defer func() {
				ctx.flush() // body may end with batched compute pending
				ctx.end = p.Now()
				sys.Obs.Tracer().End(ctx.procSpan, ctx.end)
				if p.Killed() {
					// A kill interrupts instrumented sections mid-flight:
					// charges may exceed the elapsed total, so seal leniently.
					ctx.prof.FinishInterrupted(ctx.end - ctx.start)
				} else {
					ctx.prof.Finish(ctx.end - ctx.start)
				}
				sys.M.Release(ctx.thread)
			}()
			body(ctx)
		})
		ctx.p.Ctx = ctx
		// Contexts, fault plans and reports use member handles after
		// the members finish, so their records must never be recycled.
		ctx.p.Pin()
	}
	sys.groups = append(sys.groups, g)
	return g
}

// newGroupShell validates options, builds the group and its member
// contexts, and returns the spawn order (nil = rank order).
func (sys *System) newGroupShell(name string, attrs Attrs, n int, opts []GroupOption) (*Group, []int) {
	if n < 1 {
		panic("core: group needs at least one process")
	}
	var gc groupConfig
	for _, o := range opts {
		o(&gc)
	}
	pl := gc.placement
	if pl == nil {
		pl = sys.PlaceGroup(attrs.Dist, n)
	}
	if len(pl) != n {
		panic(fmt.Sprintf("core: placement size %d != group size %d", len(pl), n))
	}

	k := sys.K
	if gc.byShard && sys.shardSafe() {
		s := sys.M.ShardOfThread(pl[0])
		for _, t := range pl[1:] {
			if sys.M.ShardOfThread(t) != s {
				panic(fmt.Sprintf("core: ShardByPlacement group %q spans shards (placement %v)", name, pl))
			}
		}
		k = sys.M.KernelFor(pl[0])
	}

	g := &Group{
		sys:   sys,
		name:  name,
		attrs: attrs,
		n:     n,
		k:     k,
		bar:   sim.NewBarrier(k, n),
		// The group owns its placement: live migration (Ctx.Rebind)
		// updates it in place, which must never reach back into the
		// caller's slice (e.g. a sched.Decision reused for a second run).
		placement: append(Placement(nil), pl...),
	}
	order := gc.startOrder
	if order != nil {
		if len(order) != n {
			panic(fmt.Sprintf("core: start order size %d != group size %d", len(order), n))
		}
		seen := make([]bool, n)
		for _, i := range order {
			if i < 0 || i >= n || seen[i] {
				panic(fmt.Sprintf("core: start order %v is not a permutation of [0,%d)", order, n))
			}
			seen[i] = true
		}
	}

	// Contexts, mailboxes, profiles and thread bindings are created in
	// rank order regardless of start order, so member coordinates
	// (endpoint indices, profile names) are identical however the group
	// is later restored. Only the spawn loop follows the start order:
	// spawn order fixes the kernel's event-sequence assignment and with
	// it the FIFO tie-breaking of same-instant activations.
	g.ctxs = make([]*Ctx, n)
	for i := 0; i < n; i++ {
		pname := fmt.Sprintf("%s/%d", name, i)
		ctx := &Ctx{sys: sys, g: g, idx: i, thread: pl[i]}
		ctx.ep = sys.Net.NewEndpoint(pname, pl[i])
		// The endpoint's wake kernel must be the one the member parks
		// on — g.k, which for demoted groups differs from the thread's
		// home shard.
		ctx.ep.BindKernel(g.k)
		ctx.prof = sys.Obs.Profiler().Proc(pname)
		sys.M.Bind(pl[i])
		g.ctxs[i] = ctx
	}
	return g, order
}

// Name returns the group name.
func (g *Group) Name() string { return g.name }

// Attrs returns the group's STAMP attributes.
func (g *Group) Attrs() Attrs { return g.attrs }

// Size returns the number of member processes.
func (g *Group) Size() int { return g.n }

// Ctxs returns the member contexts in rank order.
func (g *Group) Ctxs() []*Ctx { return g.ctxs }

// Placement returns the thread assignment of the group.
func (g *Group) Placement() Placement { return g.placement }

// Kernel returns the kernel the group's members run on — a shard for
// ShardByPlacement groups on a sharded system, sys.K otherwise.
func (g *Group) Kernel() *sim.Kernel { return g.k }

// Await blocks the calling STAMP process until every member of g has
// finished — how a parent waits for a nested STAMP (rule 4 of §3.1).
func (g *Group) Await(parent *Ctx) {
	parent.flush() // charge the parent's compute before it blocks
	for _, c := range g.ctxs {
		parent.p.Join(c.p)
	}
}

// ThreadsPerCoreUsed returns, per core index, how many group members
// are placed on that core — the quantity the power-envelope analysis
// constrains.
func (g *Group) ThreadsPerCoreUsed() map[int]int {
	out := make(map[int]int)
	for _, t := range g.placement {
		out[g.sys.M.Cfg.CoreOf(machine.ThreadID(t))]++
	}
	return out
}
