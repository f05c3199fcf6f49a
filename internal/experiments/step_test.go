package experiments

import (
	"os"
	"testing"

	"repro/internal/core"
)

// Every app once had two process bodies — a goroutine-style body and a
// step-machine driver — and the tests here proved both modes rendered
// the goldens. Only the goroutine-style body remains, run as a pooled
// coroutine; the tests keep their names and now close the equivalence
// along the axes that remain: the kernel's hold fast path, and host
// parallelism.

// TestGoldenOutputsGoroutineMode runs the whole suite with the hold
// fast path off on every system's kernel, so each charged hold parks
// its coroutine and is resumed by dispatch, and compares against the
// same goldens: coalescing may only skip work, never change a result.
func TestGoldenOutputsGoroutineMode(t *testing.T) {
	remove := core.AddGlobalOption(func(sys *core.System) { sys.K.DisableFastPath = true })
	defer remove()
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			want, err := os.ReadFile(goldenPath(id))
			if err != nil {
				t.Fatalf("missing golden for %s: %v", id, err)
			}
			res, err := Run(id)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.String(); got != string(want) {
				t.Fatalf("slow-path %s diverged from golden\n--- got ---\n%s\n--- want ---\n%s",
					id, got, want)
			}
		})
	}
}

// TestGoldenOutputsStepWorkers pins determinism against host
// parallelism: the full suite through the parallel harness at 1, 2 and
// 4 workers must reproduce every golden byte-for-byte, with each
// worker's kernels resuming pooled coroutines under real host-scheduler
// interleavings.
func TestGoldenOutputsStepWorkers(t *testing.T) {
	ids := IDs()
	for _, workers := range []int{1, 2, 4} {
		results := RunAllParallel(workers)
		if len(results) != len(ids) {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(results), len(ids))
		}
		for _, res := range results {
			want, err := os.ReadFile(goldenPath(res.ID))
			if err != nil {
				t.Fatalf("missing golden for %s: %v", res.ID, err)
			}
			if got := res.String(); got != string(want) {
				t.Fatalf("workers=%d: %s diverged from golden", workers, res.ID)
			}
		}
	}
}
