package kernels

import (
	"fmt"

	"repro/internal/core"
)

// ScanAttrs: the Hillis–Steele parallel prefix is bulk-synchronous —
// every process is active every round, so synch_comm rounds.
var ScanAttrs = core.Attrs{Dist: core.IntraProc, Exec: core.AsyncExec, Comm: core.SynchComm}

// ScanResult reports a parallel prefix run.
type ScanResult struct {
	Prefix []float64 // inclusive prefix sums
	Rounds int
	Group  *core.Group
}

// Scan computes inclusive prefix sums of vals with one STAMP process
// per element (Hillis–Steele: ⌈log₂ n⌉ rounds; in round k process i
// receives from i−2^k and adds).
func Scan(sys *core.System, vals []float64) (ScanResult, error) {
	n := len(vals)
	if n == 0 {
		return ScanResult{}, fmt.Errorf("kernels: empty scan input")
	}
	out := make([]float64, n)
	levels := 0
	for 1<<levels < n {
		levels++
	}

	body := func(ctx *core.Ctx) {
		i := ctx.Index()
		s := vals[i]
		for k := 0; k < levels; k++ {
			stride := 1 << k
			ctx.SRound(func() {
				// Send current value to the right partner before
				// receiving: classic doubling exchange.
				if i+stride < n {
					ctx.SendTo(i+stride, s)
				}
				if i-stride >= 0 {
					m := ctx.Recv()
					s += m.Payload.(float64)
					ctx.FpOps(1)
				}
			})
		}
		out[i] = s
	}

	g := sys.NewGroup("scan", ScanAttrs, n, body)
	if err := sys.Run(); err != nil {
		return ScanResult{}, err
	}
	return ScanResult{Prefix: out, Rounds: levels, Group: g}, nil
}

// SequentialScan is the baseline inclusive prefix sum.
func SequentialScan(vals []float64) []float64 {
	out := make([]float64, len(vals))
	s := 0.0
	for i, v := range vals {
		s += v
		out[i] = s
	}
	return out
}
