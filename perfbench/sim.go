package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/apps/apsp"
	"repro/internal/apps/jacobi"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workload"
)

// Input sizes of the two direct-call workloads. An op takes a few tens
// of milliseconds on a 2-CPU host, so a 30 s window holds hundreds of
// samples.
const (
	apspV       = 16
	apspDensity = 0.25
	apspMaxW    = 40
	jacobiN     = 32
	jacobiIters = 16
	simPool     = 32 // distinct inputs per seed, cycled through by the client
)

// simSession runs a pool of inputs through one app entry point, one op
// per fresh core.NewSystem, from a single closed-loop client.
type simSession struct {
	// run executes pool entry i on a fresh system, checks its output
	// and returns the virtual statistics and the time NewSystem and
	// Run took.
	run func(i int, tr *tracer, opID int) (virt, time.Duration, error)
	n   int
	ref []virt
}

func (s *simSession) start() error { return nil }
func (s *simSession) stop() int64  { return 0 }
func (s *simSession) close()       {}

func (s *simSession) reference() ([]op, []virt) {
	ops := make([]op, s.n)
	ref := make([]virt, s.n)
	for i := range s.n {
		ops[i] = s.exec(i, nil)
		ref[i] = ops[i].work
	}
	s.ref = ref
	return ops, ref
}

func (s *simSession) do(ctx context.Context, c, k int, tr *tracer) (op, bool) {
	return s.exec(k%s.n, tr), true
}

func (s *simSession) exec(i int, tr *tracer) op {
	id := tr.newID()
	t0 := time.Now()
	v, lat, err := s.run(i, tr, id)
	tr.record(id, 0, id, "op", t0, time.Now())
	o := op{entry: i, lat: lat, ok: err == nil, work: v}
	if err != nil {
		o.why = err.Error()
	} else if s.ref != nil && v != s.ref[i] {
		o.ok, o.why = false, fmt.Sprintf("entry %d: virtual statistics %+v differ from the reference pass %+v", i, v, s.ref[i])
	}
	return o
}

// sysVirt reads a finished system's virtual outcome and work counters,
// and hashes the op's output.
func sysVirt(sys *core.System, rep core.GroupReport, out []byte) virt {
	v := virt{
		T: int64(rep.T()), E: rep.E(), Out: outHash(out),
		Events:    sys.K.Dispatched(),
		Delivered: sys.Net.Delivered(),
		Commits:   sys.TM.Commits(),
		Aborts:    sys.TM.Aborts(),
	}
	for _, rs := range sys.Mem.RegionStats() {
		v.Reads += rs.Reads
		v.Writes += rs.Writes
	}
	return v
}

// timedRun builds a fresh Niagara system and calls app on it, recording
// both calls as spans under opID.
func timedRun(tr *tracer, opID int, name string, app func(*core.System) (core.GroupReport, error)) (*core.System, core.GroupReport, time.Duration, error) {
	t0 := time.Now()
	sys := core.NewSystem(machine.Niagara())
	t1 := time.Now()
	rep, err := app(sys)
	t2 := time.Now()
	tr.record(tr.newID(), opID, opID, "core.NewSystem", t0, t1)
	tr.record(tr.newID(), opID, opID, name, t1, t2)
	return sys, rep, t2.Sub(t0), err
}

// apspInputs generates the seed's pool of random graphs.
func apspInputs(seed int64, tr *tracer) []workload.Graph {
	rng := rand.New(rand.NewSource(seed))
	graphs := make([]workload.Graph, simPool)
	for i := range graphs {
		t0 := time.Now()
		graphs[i] = workload.NewRandomGraph(apspV, apspDensity, apspMaxW, rng.Int63())
		tr.record(tr.newID(), 0, 0, "workload.gen", t0, time.Now())
	}
	return graphs
}

// jacobiInputs generates the seed's pool of linear systems.
func jacobiInputs(seed int64, tr *tracer) []workload.LinearSystem {
	rng := rand.New(rand.NewSource(seed))
	systems := make([]workload.LinearSystem, simPool)
	for i := range systems {
		t0 := time.Now()
		systems[i] = workload.NewLinearSystem(jacobiN, rng.Int63())
		tr.record(tr.newID(), 0, 0, "workload.gen", t0, time.Now())
	}
	return systems
}

func newAPSPSession(seed int64, tr *tracer) (session, error) {
	graphs := apspInputs(seed, tr)
	want := make([][][]int64, len(graphs))
	for i, g := range graphs {
		want[i] = apsp.FloydWarshall(g)
	}
	s := &simSession{n: simPool}
	s.run = func(i int, tr *tracer, opID int) (virt, time.Duration, error) {
		var res apsp.Result
		sys, rep, lat, err := timedRun(tr, opID, "apsp.Run", func(sys *core.System) (core.GroupReport, error) {
			var err error
			res, err = apsp.Run(sys, apsp.Config{Graph: graphs[i], Mode: apsp.Async})
			if err != nil {
				return core.GroupReport{}, err
			}
			return res.Report(), nil
		})
		if err != nil {
			return virt{}, lat, err
		}
		if !apsp.Equal(res.Dist, want[i]) {
			return virt{}, lat, fmt.Errorf("entry %d: distances differ from Floyd-Warshall", i)
		}
		var out []byte
		for _, row := range res.Dist {
			for _, d := range row {
				out = binary.LittleEndian.AppendUint64(out, uint64(d))
			}
		}
		return sysVirt(sys, rep, out), lat, nil
	}
	return s, warmUp(s)
}

func newJacobiSession(seed int64, tr *tracer) (session, error) {
	systems := jacobiInputs(seed, tr)
	want := make([][]float64, len(systems))
	for i, ls := range systems {
		want[i], _ = jacobi.Sequential(ls, jacobiIters, 0)
	}
	s := &simSession{n: simPool}
	s.run = func(i int, tr *tracer, opID int) (virt, time.Duration, error) {
		var res jacobi.Result
		sys, rep, lat, err := timedRun(tr, opID, "jacobi.Run", func(sys *core.System) (core.GroupReport, error) {
			var err error
			res, err = jacobi.Run(sys, jacobi.Config{System: systems[i], Iters: jacobiIters})
			if err != nil {
				return core.GroupReport{}, err
			}
			return res.Report(), nil
		})
		if err != nil {
			return virt{}, lat, err
		}
		if res.Iters != jacobiIters {
			return virt{}, lat, fmt.Errorf("entry %d: ran %d iterations, want %d", i, res.Iters, jacobiIters)
		}
		var out []byte
		for j, x := range res.X {
			if math.Abs(x-want[i][j]) > 1e-12 {
				return virt{}, lat, fmt.Errorf("entry %d: component %d is %g, sequential Jacobi gives %g", i, j, x, want[i][j])
			}
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
		}
		return sysVirt(sys, rep, out), lat, nil
	}
	return s, warmUp(s)
}

// warmUp runs the first pool entry once, so that lazy initialisation
// is paid in set-up rather than by the first timed op.
func warmUp(s *simSession) error {
	if o := s.exec(0, nil); !o.ok {
		return fmt.Errorf("warm-up op: %s", o.why)
	}
	return nil
}
