package kernels

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// SortAttrs: odd–even transposition sort exchanges with alternating
// neighbors each round — bulk-synchronous nearest-neighbor traffic.
var SortAttrs = core.Attrs{Dist: core.IntraProc, Exec: core.AsyncExec, Comm: core.SynchComm}

// SortResult reports an odd–even transposition sort run.
type SortResult struct {
	Sorted []int64
	Rounds int
	Group  *core.Group
}

// OddEvenSort sorts vals with one STAMP process per element using
// odd–even transposition: n rounds of compare-exchange with the left or
// right neighbor. O(n) rounds, but every round is a single neighbor
// exchange — the canonical mesh-friendly sort.
func OddEvenSort(sys *core.System, vals []int64) (SortResult, error) {
	n := len(vals)
	if n == 0 {
		return SortResult{}, fmt.Errorf("kernels: empty sort input")
	}
	out := make([]int64, n)

	body := func(ctx *core.Ctx) {
		i := ctx.Index()
		v := vals[i]
		for round := 0; round < n; round++ {
			partner := -1
			if round%2 == i%2 {
				partner = i + 1
			} else {
				partner = i - 1
			}
			ctx.SRound(func() {
				if partner < 0 || partner >= n {
					return
				}
				ctx.SendTo(partner, v)
				other := ctx.Recv().Payload.(int64)
				ctx.IntOps(1) // the comparison
				if partner > i {
					if other < v {
						v = other
					}
				} else {
					if other > v {
						v = other
					}
				}
			})
		}
		out[i] = v
	}

	g := sys.NewGroup("oesort", SortAttrs, n, body)
	if err := sys.Run(); err != nil {
		return SortResult{}, err
	}
	return SortResult{Sorted: out, Rounds: n, Group: g}, nil
}

// SequentialSort is the baseline.
func SequentialSort(vals []int64) []int64 {
	out := append([]int64(nil), vals...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IsSorted reports whether xs is non-decreasing.
func IsSorted(xs []int64) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i-1] > xs[i] {
			return false
		}
	}
	return true
}
