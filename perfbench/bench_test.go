package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95},
		{499, 95}, {500, 98}, {1000, 99}, {2000, 99.5}, {5000, 99.8}, {10000, 99.9}, {1e6, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	// At the chosen percentile at least ten samples lie beyond the
	// value percentile returns.
	for _, n := range []int{20, 137, 200, 512, 1000, 3000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		p := tailPercentile(n)
		if b := beyond(xs, percentile(xs, p)); b < 10 {
			t.Errorf("n=%d: p%g leaves %d samples beyond it, want >= 10", n, p, b)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 95: 10, 100: 10, 1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(p%g) = %g, want %g", p, got, want)
		}
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestChargeInnermostModule(t *testing.T) {
	stacks := [][]string{
		// Memory is the innermost repository frame; runtime frames
		// inside it and outer sim/apps frames do not count.
		{"runtime.mallocgc", "repro/internal/memory.(*Region[go.shape.int64]).ReadRange",
			"repro/internal/apps/apsp.Run.func1", "repro/internal/sim.(*Kernel).Run", "main.main"},
		{"runtime.gcBgMarkWorker"},
		{"net/http.(*Transport).roundTrip", "main.(*serveSession).cycle"},
		{"repro/internal/apps/jacobi.(*member).afterRecv", "repro/internal/core.(*Ctx).Step"},
		// Modules without a metric of their own pool as "other".
		{"repro/internal/machine.Config.Place", "repro/internal/core.(*System).PlaceGroup"},
		{"encoding/json.Marshal", "repro/internal/serve.(*Server).execute"},
	}
	weights := []int64{10, 20, 30, 40, 50, 50}
	got := chargeStacks(stacks, weights)
	want := map[string]float64{
		"memory": 0.05, "go_runtime": 0.1, "bench": 0.15, "apps": 0.2, "other": 0.25, "serve": 0.25,
	}
	var sum float64
	for _, m := range chargedModules {
		share, ok := got[m]
		if !ok {
			t.Errorf("module %s missing from the shares", m)
		}
		if math.Abs(share-want[m]) > 1e-12 {
			t.Errorf("%s share = %g, want %g", m, share, want[m])
		}
		sum += share
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %g, want 1", sum)
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, weights, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i, st := range stacks {
		if weights[i] <= 0 {
			t.Fatalf("sample %d has weight %d", i, weights[i])
		}
		for _, fn := range st {
			found = found || strings.HasSuffix(fn, ".spin")
		}
	}
	if !found {
		t.Fatalf("no sample of %d has the spinning function on its stack", len(stacks))
	}
	if _, _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("decoding garbage succeeded")
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.newID()
	tr.record(tr.newID(), root, root, "a", at(0), at(4))
	tr.record(tr.newID(), root, root, "b", at(2), at(6)) // overlaps a
	tr.record(root, 0, root, "op", at(0), at(10))
	for _, st := range tr.selfTimes() {
		if st.Name == "op" && st.SelfMS != 4 {
			t.Errorf("op self time = %g ms, want 4", st.SelfMS)
		}
	}
}

func TestSeedDeterminism(t *testing.T) {
	if !reflect.DeepEqual(apspInputs(1, nil), apspInputs(1, nil)) ||
		reflect.DeepEqual(apspInputs(1, nil), apspInputs(2, nil)) {
		t.Error("apsp inputs are not a function of the seed alone")
	}
	if !reflect.DeepEqual(jacobiInputs(1, nil), jacobiInputs(1, nil)) ||
		reflect.DeepEqual(jacobiInputs(1, nil), jacobiInputs(2, nil)) {
		t.Error("jacobi inputs are not a function of the seed alone")
	}
	specs1, sched1, _ := serveMix(1)
	specs1b, sched1b, _ := serveMix(1)
	specs2, sched2, _ := serveMix(2)
	if !reflect.DeepEqual(specs1, specs1b) || sched1 != sched1b ||
		reflect.DeepEqual(specs2, specs1) || sched2 == sched1 {
		t.Error("serve specs and schedules are not a function of the seed alone")
	}
	hits := 0
	for c := range sched1 {
		for j, sl := range sched1[c] {
			if sl.hit {
				hits++
				if first := firstSlot(sched1[c][:], sl.entry); first >= j {
					t.Errorf("client %d slot %d resubmits entry %d before its first submission", c, j, sl.entry)
				}
			}
		}
	}
	if want := serveClients * (serveSlots - servePerClient); hits != want {
		t.Errorf("%d resubmissions, want %d", hits, want)
	}

	if testing.Short() {
		t.Skip("reference passes skipped in short mode")
	}
	for _, w := range workloads {
		d1, d1b, d2 := referenceDigest(t, w, 1), referenceDigest(t, w, 1), referenceDigest(t, w, 2)
		if d1 != d1b {
			t.Errorf("%s: seed 1 digests differ: %s, %s", w.name, d1, d1b)
		}
		if d1 == d2 {
			t.Errorf("%s: seeds 1 and 2 give the same digest %s", w.name, d1)
		}
	}
}

func firstSlot(sched []slot, entry int) int {
	for j, sl := range sched {
		if sl.entry == entry && !sl.hit {
			return j
		}
	}
	return len(sched)
}

func referenceDigest(t *testing.T, w workloadDef, seed int64) string {
	t.Helper()
	s, err := w.setup(seed, nil)
	if err != nil {
		t.Fatalf("%s: set-up: %v", w.name, err)
	}
	defer s.close()
	ops, ref := s.reference()
	for _, o := range ops {
		if !o.ok {
			t.Fatalf("%s: reference op failed: %s", w.name, o.why)
		}
	}
	return digest(ref)
}

// TestServeEpochs drives two epochs of the serve-mixed schedule, so the
// server is replaced once while both clients are active, then checks
// that a client waiting for a partner that stopped gives up when the
// window ends.
func TestServeEpochs(t *testing.T) {
	if testing.Short() {
		t.Skip("serve epochs skipped in short mode")
	}
	sess, err := newServeSession(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.close()
	s := sess.(*serveSession)
	ops, _ := s.reference()
	for _, o := range ops {
		if !o.ok {
			t.Fatalf("reference op failed: %s", o.why)
		}
	}

	if err := s.start(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var hits atomic.Int64
	for c := range serveClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 2*serveSlots + 1 {
				o, ok := s.do(context.Background(), c, k, nil)
				if !ok || !o.ok {
					t.Errorf("client %d op %d: started=%v %s", c, k, ok, o.why)
					return
				}
				if o.hit {
					hits.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if events := s.stop(); events <= 0 {
		t.Errorf("kernel events over two epochs = %d, want > 0", events)
	}
	if want := int64(2 * serveClients * (serveSlots - servePerClient)); hits.Load() != want {
		t.Errorf("%d cache hits, want %d", hits.Load(), want)
	}

	// Client 1 stops after one epoch; client 0 must not wait for it
	// past the end of the window.
	if err := s.start(); err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	ctx, cancel := context.WithCancel(context.Background())
	for k := range serveSlots {
		if o, _ := s.do(ctx, 1, k, nil); !o.ok {
			t.Fatalf("client 1 op %d: %s", k, o.why)
		}
	}
	for k := range serveSlots {
		if o, _ := s.do(ctx, 0, k, nil); !o.ok {
			t.Fatalf("client 0 op %d: %s", k, o.why)
		}
	}
	cancel()
	if _, ok := s.do(ctx, 0, serveSlots, nil); ok {
		t.Error("client 0 started an op in an epoch its partner never reached")
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and
// checks that each reports exactly the metrics BENCHMARK.json declares,
// and that each workload bypasses the layers its reason says it does.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs skipped in short mode")
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var declared []string
	for _, w := range decl.Workloads {
		declared = append(declared, w.Name)
	}
	if !reflect.DeepEqual(names, declared) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", names, declared)
	}

	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{seed: 3, window: 400 * time.Millisecond, trace: trace, root: t.TempDir(), commit: "test"}
			res, err := runWorkload(io.Discard, w, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := decl.EndToEnd
			if trace {
				want = decl.PerLayer
			}
			var got, exp []string
			for n, m := range res.Metrics {
				got = append(got, n+" "+m.Unit)
			}
			for _, m := range want {
				exp = append(exp, m.Name+" "+m.Unit)
			}
			sort.Strings(got)
			sort.Strings(exp)
			if !reflect.DeepEqual(got, exp) {
				t.Errorf("%s trace=%v: metrics %v, want %v", w.name, trace, got, exp)
			}
			if !trace {
				for n, m := range res.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.name, n, m.Value)
					}
				}
				continue
			}
			var sum float64
			for n, m := range res.Metrics {
				if strings.HasSuffix(n, ".cpu_share") {
					sum += m.Value
				}
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("%s: cpu shares sum to %g, want 1", w.name, sum)
			}
			zero := map[string][]string{
				"apsp-shared-read": {"msgpass.delivered_per_op", "obs.spans_per_op", "stm.commits_per_op", "ckpt.commits_per_op"},
				"jacobi-msgpass":   {"memory.reads_per_op", "obs.spans_per_op", "stm.commits_per_op", "ckpt.commits_per_op"},
			}[w.name]
			for _, n := range zero {
				if v := res.Metrics[n].Value; v != 0 {
					t.Errorf("%s: %s = %g, want 0", w.name, n, v)
				}
			}
		}
	}
}

func TestWindowedPercentile(t *testing.T) {
	// Ten parts of 100 samples, each holding 1..100: every part's p90
	// is 90.
	lat := make([]float64, 1000)
	for i := range lat {
		lat[i] = float64(i%100 + 1)
	}
	if got, k := windowedPercentile(lat, 90, 10); got != 90 || k != 10 {
		t.Errorf("uniform parts: got %g over %d parts, want 90 over 10", got, k)
	}
	// A burst of slow ops over three consecutive parts raises the
	// whole run's p90 but not the median over the parts.
	burst := append([]float64(nil), lat...)
	for i := 400; i < 700; i++ {
		burst[i] += 1000
	}
	sorted := append([]float64(nil), burst...)
	sort.Float64s(sorted)
	if whole := percentile(sorted, 90); whole < 1000 {
		t.Fatalf("whole-run p90 of the burst = %g, want it raised past 1000", whole)
	}
	if got, _ := windowedPercentile(burst, 90, 10); got != 90 {
		t.Errorf("burst in 3 of 10 parts: got %g, want 90", got)
	}
	// A slowdown over most of the run shows.
	for i := 0; i < 600; i++ {
		burst[i] = lat[i] + 1000
	}
	if got, _ := windowedPercentile(burst, 90, 10); got != 1090 {
		t.Errorf("slowdown in 6 of 10 parts: got %g, want 1090", got)
	}
	// Parts keep at least five samples beyond their percentile: 200
	// samples at p90 allow four parts; 40 allow none, so the whole
	// run's percentile is returned.
	if _, k := windowedPercentile(lat[:200], 90, 10); k != 4 {
		t.Errorf("200 samples: %d parts, want 4", k)
	}
	if got, k := windowedPercentile(lat[:40], 90, 10); got != 36 || k != 1 {
		t.Errorf("40 samples: got %g over %d parts, want 36 over 1", got, k)
	}
}
