// Command perfbench is the repository's benchmark. It runs one seeded
// workload against the simulator's public entry points, checks every
// output, and prints its metrics. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"<name>": {"value": v, "unit": "u"}}}
//
// With -trace 0 the metrics are the end-to-end ones, measured over a
// window of -seconds. With -trace 1 they are the per-layer ones: the
// window is split into an untraced half and a traced half (spans around
// every call into the program plus a CPU profile), and the difference
// between the halves is reported as the tracing overhead.
//
// run.sh builds and runs it from the repository root:
//
//	bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 10 --trace 0
//
// The exit status is 1 when any output was wrong.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// op is the outcome of one closed-loop request.
type op struct {
	entry int // pool index of the input
	lat   time.Duration
	ok    bool
	why   string // the failed check, when !ok
	work  virt   // work the program did for this op; zero for a cache hit

	// serve-mixed only.
	hit         bool
	streamBytes int64
	runID       string
	result      []byte

	done time.Duration // when the op finished, from the window's start
}

// session is one set-up instance of a workload: a seeded pool of
// distinct inputs with their expected outputs, and whatever the
// workload keeps open between ops.
type session interface {
	// reference runs every pool entry once, untimed, and records each
	// one's output and virtual statistics; every later op is checked
	// against them.
	reference() ([]op, []virt)
	// start and stop bracket a timed window. stop returns the kernel
	// events the program dispatched that no op reported itself.
	start() error
	stop() int64
	// do runs client c's k-th op. It reports false when the window
	// ended before the op could start.
	do(ctx context.Context, c, k int, tr *tracer) (op, bool)
	close()
}

// workloadDef is one benchmark workload. tailPct is the percentile
// latency_tail_ms reports, as the median of its value over
// tailWindows sub-windows of the run. It is fixed per workload, so
// runs compare, and set below the tail rule's value for a 30 s run
// (p99, p98 and p99.5 on a 2-CPU host): with only ten samples beyond
// them those spread 30% between runs on such a host, more than any
// bound allows, while these keep about a hundred samples beyond them.
type workloadDef struct {
	name           string
	clients, conns int
	tailPct        float64
	setup          func(seed int64, tr *tracer) (session, error)
}

var workloads = []workloadDef{
	{name: "apsp-shared-read", clients: 1, tailPct: 90, setup: newAPSPSession},
	{name: "jacobi-msgpass", clients: 1, tailPct: 90, setup: newJacobiSession},
	{name: "serve-mixed", clients: serveClients, conns: serveClients, tailPct: 98, setup: newServeSession},
}

// setupRepeats is how many times a run sets the workload up; setup_s is
// the median.
const setupRepeats = 21

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	seed         int64
	window       time.Duration
	trace        bool
	root, commit string
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 10, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "1 measures the per-layer metrics in a traced run")
		root    = flag.String("root", ".", "repository checkout the benchmark was built from")
		commit  = flag.String("commit", "none", "commit of the checkout, if known")
	)
	flag.Parse()
	var selected []workloadDef
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s|all} --seed N --seconds S --trace {0|1}\n", strings.Join(names, "|"))
		os.Exit(2)
	}
	cfg := config{seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, root: *root, commit: *commit}
	correct := true
	for _, w := range selected {
		res, err := runWorkload(os.Stdout, w, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		correct = correct && res.Correct
	}
	if !correct {
		os.Exit(1)
	}
}

// runWorkload sets w up, runs its reference pass and its timed window,
// and prints a report to out. The returned result holds the end-to-end
// or, traced, the per-layer metrics.
func runWorkload(out io.Writer, w workloadDef, cfg config) (result, error) {
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g trace=%v\n", w.name, cfg.seed, cfg.window.Seconds(), cfg.trace)
	fp, err := json.Marshal(fingerprint(w, cfg))
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "fingerprint %s\n", fp)
	if w.clients > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "perfbench: %d load clients exceed the %d CPUs\n", w.clients, runtime.NumCPU())
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var sess session
	setups := make([]float64, 0, setupRepeats)
	for range setupRepeats {
		if sess != nil {
			sess.close()
		}
		t0 := time.Now()
		s, err := w.setup(cfg.seed, tr)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		sess = s
	}
	defer sess.close()

	ops, ref := sess.reference()
	fmt.Fprintf(out, "digest %s over %d pool entries\n", digest(ref), len(ref))

	var vals map[string]metric
	if !cfg.trace {
		win, err := measure(sess, w.clients, cfg.window, nil)
		if err != nil {
			return result{}, err
		}
		ops = append(ops, win.ops...)
		vals = endToEnd(out, w, win, median(setups))
	} else {
		plain, err := measure(sess, w.clients, cfg.window/2, nil)
		if err != nil {
			return result{}, err
		}
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return result{}, err
		}
		traced, err := measure(sess, w.clients, cfg.window/2, tr)
		pprof.StopCPUProfile()
		if err != nil {
			return result{}, err
		}
		stacks, weights, err := decodeProfile(prof.Bytes())
		if err != nil {
			return result{}, err
		}
		ops = append(append(ops, plain.ops...), traced.ops...)
		vals = perLayer(out, w, plain, traced, tr, chargeStacks(stacks, weights))
		if err := writeSpans(out, tr, w.name, cfg); err != nil {
			return result{}, err
		}
	}

	res := result{Attempted: len(ops), Metrics: vals}
	for _, o := range ops {
		if !o.ok {
			if res.Failed < 5 {
				fmt.Fprintf(os.Stderr, "perfbench: %s: failed op: %s\n", w.name, o.why)
			}
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(out, "failed_ratio %.6f (%d of %d ops, reference pass included)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-28s %14.6f %s\n", n, vals[n].Value, vals[n].Unit)
	}
	return res, nil
}

// window is what one timed run of closed-loop clients measured.
type window struct {
	ops      []op
	elapsed  time.Duration
	events   int64  // kernel events dispatched
	heapPeak uint64 // bytes
	allocs   uint64 // bytes allocated
}

// measure runs clients closed-loop clients until d has passed and the
// ops in flight have finished.
func measure(s session, clients int, d time.Duration, tr *tracer) (window, error) {
	runtime.GC()
	if err := s.start(); err != nil {
		return window{}, err
	}
	heap := startHeapSampler()
	a0 := readUint64("/gc/heap/allocs:bytes")
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	t0 := time.Now()
	per := make([][]op, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ctx.Err() == nil; k++ {
				o, ok := s.do(ctx, c, k, tr)
				if !ok {
					return
				}
				o.done = time.Since(t0)
				per[c] = append(per[c], o)
			}
		}()
	}
	wg.Wait()
	w := window{elapsed: time.Since(t0)}
	w.allocs = readUint64("/gc/heap/allocs:bytes") - a0
	w.heapPeak = heap.stop()
	w.events = s.stop()
	for _, p := range per {
		w.ops = append(w.ops, p...)
	}
	sort.SliceStable(w.ops, func(i, j int) bool { return w.ops[i].done < w.ops[j].done })
	for _, o := range w.ops {
		w.events += o.work.Events
	}
	return w, nil
}

// latencies returns every op's latency in milliseconds, in completion
// order. Failed ops are kept: a failure is never dropped from the
// sample.
func (w window) latencies() []float64 {
	lat := make([]float64, len(w.ops))
	for i, o := range w.ops {
		lat[i] = ms(o.lat)
	}
	return lat
}

// sortedLatencies returns latencies sorted.
func (w window) sortedLatencies() []float64 {
	lat := w.latencies()
	sort.Float64s(lat)
	return lat
}

func (w window) verified() int {
	n := 0
	for _, o := range w.ops {
		if o.ok {
			n++
		}
	}
	return n
}

func endToEnd(out io.Writer, w workloadDef, win window, setup float64) map[string]metric {
	lat := win.sortedLatencies()
	secs := win.elapsed.Seconds()
	tail, parts := windowedPercentile(win.latencies(), w.tailPct, tailWindows)
	fmt.Fprintf(out, "latency: %d samples; tail is the median p%g of %d sub-windows, %d samples beyond it in the whole run (the tail rule gives p%g at this count)\n",
		len(lat), w.tailPct, parts, beyond(lat, tail), tailPercentile(len(lat)))
	fmt.Fprintf(out, "latency ms:")
	for _, p := range tailLadder {
		fmt.Fprintf(out, " p%g=%.3f", p, percentile(lat, p))
	}
	fmt.Fprintln(out)
	return map[string]metric{
		"setup_s":          {setup, "s"},
		"latency_p50_ms":   {percentile(lat, 50), "ms"},
		"latency_tail_ms":  {tail, "ms"},
		"ops_per_s":        {float64(win.verified()) / secs, "1/s"},
		"sim_events_per_s": {float64(win.events) / secs, "1/s"},
		"heap_peak_mb":     {float64(win.heapPeak) / (1 << 20), "MiB"},
	}
}

func perLayer(out io.Writer, w workloadDef, plain, traced window, tr *tracer, shares map[string]float64) map[string]metric {
	n := float64(len(traced.ops))
	var sum virt
	var latNS, streamBytes float64
	hits := 0
	for _, o := range traced.ops {
		sum.add(o.work)
		latNS += float64(o.lat)
		streamBytes += float64(o.streamBytes)
		if o.hit {
			hits++
		}
	}
	perOp := func(x int64) float64 { return float64(x) / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	p50 := func(name string) float64 { return median(tr.durations(name)) }
	plainP50, tracedP50 := percentile(plain.sortedLatencies(), 50), percentile(traced.sortedLatencies(), 50)
	fmt.Fprintf(out, "tracing overhead: p50 latency %.4f ms untraced, %.4f ms traced (%+.1f%%); %d and %d ops\n",
		plainP50, tracedP50, 100*ratio(tracedP50-plainP50, plainP50), len(plain.ops), len(traced.ops))

	m := map[string]metric{
		"sim.events_per_op":          {perOp(traced.events), "count"},
		"sim.ns_per_event":           {ratio(latNS, float64(traced.events)), "ns"},
		"memory.reads_per_op":        {perOp(sum.Reads), "count"},
		"memory.writes_per_op":       {perOp(sum.Writes), "count"},
		"msgpass.delivered_per_op":   {perOp(sum.Delivered), "count"},
		"go_runtime.alloc_mb_per_op": {float64(traced.allocs) / (1 << 20) / n, "MiB"},
		"stm.commits_per_op":         {perOp(sum.Commits), "count"},
		"stm.aborts_per_op":          {perOp(sum.Aborts), "count"},
		"stm.commit_ratio":           {ratio(float64(sum.Commits), float64(sum.Commits+sum.Aborts)), "ratio"},
		"obs.spans_per_op":           {perOp(sum.Spans), "count"},
		"obs.event_bytes_per_op":     {streamBytes / n, "bytes"},
		"ckpt.commits_per_op":        {perOp(sum.Ckpts), "count"},
		"serve.submit_ms":            {p50("serve.submit"), "ms"},
		"serve.queue_wait_ms":        {p50("serve.queue_wait"), "ms"},
		"serve.run_ms":               {p50("serve.run"), "ms"},
		"serve.result_ms":            {p50("serve.result"), "ms"},
		"serve.cache_hit_ratio":      {float64(hits) / n, "ratio"},
		"workload.gen_ms":            {p50("workload.gen"), "ms"},
		"core.new_system_ms":         {p50("core.NewSystem"), "ms"},
		"trace.overhead_share":       {ratio(tracedP50-plainP50, plainP50), "ratio"},
	}
	for mod, share := range shares {
		m[mod+".cpu_share"] = metric{share, "ratio"}
	}
	return m
}

// writeSpans prints each span name's count, total and self time and
// dumps every span under .bench_build/spans in the checkout.
func writeSpans(out io.Writer, tr *tracer, name string, cfg config) error {
	fmt.Fprintf(out, "spans (name, count, total ms, self ms):\n")
	for _, st := range tr.selfTimes() {
		fmt.Fprintf(out, "  %-20s %7d %12.3f %12.3f\n", st.Name, st.Count, st.TotalMS, st.SelfMS)
	}
	dir := filepath.Join(cfg.root, ".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.write(f, name, cfg.seed); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "spans written to %s\n", path)
	return nil
}

// fingerprint describes the host, the toolchain, the code under test
// and the load generator.
func fingerprint(w workloadDef, cfg config) map[string]any {
	return map[string]any{
		"num_cpu":          runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"go_version":       runtime.Version(),
		"commit":           cfg.commit,
		"source_sha256":    sourceHash(cfg.root),
		"load_goroutines":  w.clients,
		"load_connections": w.conns,
	}
}

// sourceHash hashes the program's Go sources and go.mod, which
// identifies the code under test where no commit is known.
func sourceHash(root string) string {
	h := sha256.New()
	add := func(path string) error {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	}
	err := add(filepath.Join(root, "go.mod"))
	for _, dir := range []string{"cmd", "internal"} {
		if err != nil {
			break
		}
		err = filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			return add(path)
		})
	}
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// heapSampler tracks the peak of the live-and-unswept heap while a
// window runs.
type heapSampler struct {
	stopc chan struct{}
	peak  chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			peak = max(peak, readUint64("/memory/classes/heap/objects:bytes"))
			select {
			case <-h.stopc:
				h.peak <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	return <-h.peak
}

func readUint64(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
