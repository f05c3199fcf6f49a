package racedet

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/memory"
	"repro/internal/obs"
)

// These two tests once ran step-machine twins of the examples. That
// execution mode is gone; they now run the examples with the kernel's
// hold fast path off, so every charge parks its coroutine and the
// detector sees each release edge through the slow dispatch path. The
// reports must still match the pinned goldens byte-for-byte.

// runSlowPath runs example on a fresh traced system whose kernel never
// coalesces holds, and returns the attached detector.
func runSlowPath(t *testing.T, example func(*core.System) (*core.Group, *memory.Region[int64])) *Detector {
	t.Helper()
	sys := core.NewSystem(machine.Generic(), core.WithObs(obs.NewObserver()))
	sys.K.DisableFastPath = true
	d := Attach(sys)
	example(sys)
	if err := sys.Run(); err != nil {
		t.Fatalf("example: %v", err)
	}
	return d
}

// TestStepModeRacyGolden: same race, same virtual times, same
// S-unit/S-round coordinates and span references on the slow path.
func TestStepModeRacyGolden(t *testing.T) {
	d := runSlowPath(t, RacyExample)
	checkGolden(t, "racy", d.Text())
	if d.Report() == nil {
		t.Fatal("racy example reported no race on the slow path")
	}
}

// TestStepModeFixedGolden: the barrier's release edges order the write
// before the read on the slow path too, yielding the clean golden.
func TestStepModeFixedGolden(t *testing.T) {
	d := runSlowPath(t, FixedExample)
	checkGolden(t, "fixed", d.Text())
	if d.Report() != nil {
		t.Fatalf("fixed example reported a race on the slow path: %s", d.Text())
	}
}
