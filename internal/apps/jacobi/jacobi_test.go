package jacobi

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func TestSequentialConverges(t *testing.T) {
	ls := workload.NewLinearSystem(16, 1)
	x, iters := Sequential(ls, 0, 1e-9)
	if res := ls.Residual(x); res > 1e-6 {
		t.Fatalf("sequential residual %g after %d iters", res, iters)
	}
}

func TestDistributedMatchesSequentialFixedIters(t *testing.T) {
	ls := workload.NewLinearSystem(8, 2)
	sys := core.NewSystem(machine.Niagara())
	res, err := Run(sys, Config{System: ls, Iters: 12})
	if err != nil {
		t.Fatal(err)
	}
	seq, _ := Sequential(ls, 12, 0)
	for i := range seq {
		if d := res.X[i] - seq[i]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("component %d: distributed %g vs sequential %g", i, res.X[i], seq[i])
		}
	}
	if res.Iters != 12 {
		t.Fatalf("iters = %d, want 12", res.Iters)
	}
}

func TestDistributedConvergesToSolution(t *testing.T) {
	ls := workload.NewLinearSystem(12, 3)
	sys := core.NewSystem(machine.Niagara())
	res, err := Run(sys, Config{System: ls, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if r := ls.Residual(res.X); r > 1e-7 {
		t.Fatalf("residual %g after %d iters", r, res.Iters)
	}
	if res.Iters >= 10*ls.N {
		t.Fatalf("hit iteration cap (%d), convergence detection broken?", res.Iters)
	}
}

func TestUniformTerminationNoDeadlock(t *testing.T) {
	// Convergence mode across several seeds must never deadlock (the
	// uniform-decision property).
	for seed := int64(1); seed <= 5; seed++ {
		ls := workload.NewLinearSystem(6, seed)
		sys := core.NewSystem(machine.Niagara())
		if _, err := Run(sys, Config{System: ls, Tol: 1e-8}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestRoundAccountingMatchesPaperCounts(t *testing.T) {
	// Per S-round and process: c_fp = 2n−1, c_int = 2 in-round (1
	// assignment; the condition checks are outside), m_s = m_r = n−1.
	n := 8
	ls := workload.NewLinearSystem(n, 4)
	sys := core.NewSystem(machine.Niagara())
	res, err := Run(sys, Config{System: ls, Iters: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx0 := res.Group.Ctxs()[0]
	rounds := ctx0.Rounds()
	if len(rounds) != 3 {
		t.Fatalf("rounds recorded = %d, want 3", len(rounds))
	}
	r := rounds[1] // steady state
	if r.Ops.FpOps != int64(2*n-1) {
		t.Fatalf("round c_fp = %d, want %d", r.Ops.FpOps, 2*n-1)
	}
	if got := r.Ops.Sends(); got != int64(n-1) {
		t.Fatalf("round m_s = %d, want %d", got, n-1)
	}
	if got := r.Ops.Recvs(); got != int64(n-1) {
		t.Fatalf("round m_r = %d, want %d", got, n-1)
	}
}

func TestMeasuredRoundTrackAnalyticalShape(t *testing.T) {
	// Measured T_S-round and E_S-round must scale like the analytical
	// 2n + L + 2gn − 2g and (2w_fp+w_ms+w_mr)n − … within a modest
	// relative error, across n.
	for _, n := range []int{8, 16, 32} {
		ls := workload.NewLinearSystem(n, 5)
		sys := core.NewSystem(machine.Niagara())
		res, err := Run(sys, Config{System: ls, Iters: 4})
		if err != nil {
			t.Fatal(err)
		}
		j := Model(sys, res.Group, n)
		mt, me := MeasuredRound(res.Group, 2)
		if mt == 0 {
			t.Fatalf("n=%d: no measured round", n)
		}
		if rel := stats.RelErr(float64(mt), j.TSRound()); rel > 0.6 {
			t.Fatalf("n=%d: measured T %d vs predicted %.0f (rel %.2f)", n, mt, j.TSRound(), rel)
		}
		if rel := stats.RelErr(me, j.ESRound()); rel > 0.3 {
			t.Fatalf("n=%d: measured E %.0f vs predicted %.0f (rel %.2f)", n, me, j.ESRound(), rel)
		}
	}
}

func TestTSUnitLowerBoundHolds(t *testing.T) {
	// The paper's chain: T_S-unit ≥ 2n (with minimal L, g). The
	// simulator's parameters are harsher than the minimal ones, so the
	// measured unit time must respect the bound too.
	n := 16
	ls := workload.NewLinearSystem(n, 6)
	sys := core.NewSystem(machine.Niagara())
	res, err := Run(sys, Config{System: ls, Iters: 3})
	if err != nil {
		t.Fatal(err)
	}
	us := res.Group.UnitStats(1)
	if us.Count == 0 {
		t.Fatal("no unit stats")
	}
	if float64(us.MaxT) < 2*float64(n) {
		t.Fatalf("measured T_S-unit %d violates paper bound 2n=%d", us.MaxT, 2*n)
	}
}

func TestInterPlacementIsSlower(t *testing.T) {
	// Distribution attribute tradeoff: same algorithm placed
	// inter_proc pays L_e/g_mp_e and must be slower in time.
	n := 8
	ls := workload.NewLinearSystem(n, 7)

	sysA := core.NewSystem(machine.Niagara())
	intra, err := Run(sysA, Config{System: ls, Iters: 5})
	if err != nil {
		t.Fatal(err)
	}
	attrs := core.Attrs{Dist: core.InterProc, Exec: core.AsyncExec, Comm: core.SynchComm}
	sysB := core.NewSystem(machine.Niagara())
	inter, err := Run(sysB, Config{System: ls, Iters: 5, Attrs: &attrs})
	if err != nil {
		t.Fatal(err)
	}
	if intra.Report().T() >= inter.Report().T() {
		t.Fatalf("intra T=%d not faster than inter T=%d", intra.Report().T(), inter.Report().T())
	}
}

func TestExplicitPlacementHonored(t *testing.T) {
	n := 4
	ls := workload.NewLinearSystem(n, 8)
	sys := core.NewSystem(machine.Niagara())
	pl := core.Placement{0, 1, 2, 4} // three on core 0, one on core 1
	res, err := Run(sys, Config{System: ls, Iters: 2, Placement: pl})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Group.Placement()
	for i := range pl {
		if got[i] != pl[i] {
			t.Fatalf("placement %v, want %v", got, pl)
		}
	}
}

func TestModelPicksLatencyByPlacement(t *testing.T) {
	ls := workload.NewLinearSystem(4, 9)
	sys := core.NewSystem(machine.Niagara())
	res, err := Run(sys, Config{System: ls, Iters: 1})
	if err != nil {
		t.Fatal(err)
	}
	j := Model(sys, res.Group, 4)
	if j.L != float64(machine.Niagara().Costs.LA) {
		t.Fatalf("intra model L = %g, want L_a", j.L)
	}
	attrs := core.Attrs{Dist: core.InterProc, Exec: core.AsyncExec, Comm: core.SynchComm}
	sys2 := core.NewSystem(machine.Niagara())
	res2, err := Run(sys2, Config{System: ls, Iters: 1, Attrs: &attrs})
	if err != nil {
		t.Fatal(err)
	}
	j2 := Model(sys2, res2.Group, 4)
	if j2.L != float64(machine.Niagara().Costs.LE) {
		t.Fatalf("inter model L = %g, want L_e", j2.L)
	}
}

func TestTooSmallSystemRejected(t *testing.T) {
	sys := core.NewSystem(machine.Niagara())
	ls := workload.LinearSystem{N: 1, A: [][]float64{{1}}, B: []float64{1}, XStar: []float64{1}}
	if _, err := Run(sys, Config{System: ls, Iters: 1}); err == nil {
		t.Fatal("n=1 accepted")
	}
}

// --- shared-memory variant ---------------------------------------------

func TestSharedMatchesSequentialFixedIters(t *testing.T) {
	ls := workload.NewLinearSystem(8, 21)
	sys := core.NewSystem(machine.Niagara())
	res, err := RunShared(sys, SharedConfig{System: ls, Iters: 12})
	if err != nil {
		t.Fatal(err)
	}
	seq, _ := Sequential(ls, 12, 0)
	for i := range seq {
		if d := res.X[i] - seq[i]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("component %d: shared %g vs sequential %g", i, res.X[i], seq[i])
		}
	}
}

func TestSharedConvergesToSolution(t *testing.T) {
	ls := workload.NewLinearSystem(10, 22)
	sys := core.NewSystem(machine.Niagara())
	res, err := RunShared(sys, SharedConfig{System: ls, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if r := ls.Residual(res.X); r > 1e-7 {
		t.Fatalf("residual %g after %d iters", r, res.Iters)
	}
	if res.Iters >= 10*ls.N {
		t.Fatalf("hit iteration cap (%d)", res.Iters)
	}
}

func TestSharedUsesSharedMemoryNotMessages(t *testing.T) {
	ls := workload.NewLinearSystem(6, 23)
	sys := core.NewSystem(machine.Niagara())
	res, err := RunShared(sys, SharedConfig{System: ls, Iters: 3})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	if rep.Ops.Sends() != 0 || rep.Ops.Recvs() != 0 {
		t.Fatalf("shared variant sent messages: %d/%d", rep.Ops.Sends(), rep.Ops.Recvs())
	}
	if rep.Ops.Reads() == 0 || rep.Ops.Writes() == 0 {
		t.Fatal("shared variant did no shared-memory traffic")
	}
}

func TestSharedVsMessagePassingBothCorrect(t *testing.T) {
	// The two communication fabrics must agree bit-for-bit on the
	// iterate after the same number of synchronous iterations.
	ls := workload.NewLinearSystem(8, 24)
	sysA := core.NewSystem(machine.Niagara())
	mp, err := Run(sysA, Config{System: ls, Iters: 9})
	if err != nil {
		t.Fatal(err)
	}
	sysB := core.NewSystem(machine.Niagara())
	shm, err := RunShared(sysB, SharedConfig{System: ls, Iters: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range mp.X {
		if d := mp.X[i] - shm.X[i]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("fabrics disagree at %d: %g vs %g", i, mp.X[i], shm.X[i])
		}
	}
}

func TestSharedTooSmallRejected(t *testing.T) {
	sys := core.NewSystem(machine.Niagara())
	ls := workload.LinearSystem{N: 1, A: [][]float64{{1}}, B: []float64{1}, XStar: []float64{1}}
	if _, err := RunShared(sys, SharedConfig{System: ls, Iters: 1}); err == nil {
		t.Fatal("n=1 accepted")
	}
}

// TestKernelStatsPinned pins the kernel's host-side work counters for
// one fixed benchmark-sized input (n=32, 16 iterations, Niagara); see
// the APSP twin. Events include the message deliveries, which run as
// kernel callbacks without resuming any coroutine.
func TestKernelStatsPinned(t *testing.T) {
	sys := core.NewSystem(machine.Niagara())
	if _, err := Run(sys, Config{System: workload.NewLinearSystem(32, 1), Iters: 16}); err != nil {
		t.Fatal(err)
	}
	want := sim.Stats{Events: 52281, Holds: 34784, Coalesced: 8, Parks: 35377, Resumes: 35409}
	if got := sys.K.Stats(); got != want {
		t.Fatalf("kernel stats = %+v, want %+v", got, want)
	}
}
