package sim

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestCoroutineTeardownNoLeak drives every way a run can end while
// processes are parked or mid-body, and requires that afterwards each
// deferred function has run exactly once and the goroutine count is back
// at its baseline: no coroutine — parked, idle on the worker pool, or
// unwinding — outlives the run.
func TestCoroutineTeardownNoLeak(t *testing.T) {
	cases := []struct {
		name   string
		defers int // deferred functions expected to run
		run    func(t *testing.T, k *Kernel, deferred func(p *Proc))
	}{
		{"complete", 4, func(t *testing.T, k *Kernel, deferred func(p *Proc)) {
			for i := 0; i < 4; i++ {
				k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
					defer deferred(p)
					p.Hold(Time(i + 1))
				})
			}
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
		}},
		{"error", 3, func(t *testing.T, k *Kernel, deferred func(p *Proc)) {
			var q WaitQueue
			for i := 0; i < 3; i++ {
				k.Spawn(fmt.Sprintf("stuck%d", i), func(p *Proc) {
					defer deferred(p)
					q.Wait(p)
				})
			}
			var dl *ErrDeadlock
			if err := k.Run(); !errors.As(err, &dl) {
				t.Fatalf("Run = %v, want ErrDeadlock", err)
			}
		}},
		{"kill-parked", 2, func(t *testing.T, k *Kernel, deferred func(p *Proc)) {
			var q WaitQueue
			victim := k.Spawn("victim", func(p *Proc) {
				defer deferred(p)
				q.Wait(p)
				t.Error("killed process resumed")
			})
			k.Spawn("killer", func(p *Proc) {
				defer deferred(p)
				p.Hold(5)
				victim.Kill()
				p.Join(victim)
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if !victim.Done() || !victim.Killed() {
				t.Fatalf("victim done=%v killed=%v", victim.Done(), victim.Killed())
			}
		}},
		{"self-kill", 2, func(t *testing.T, k *Kernel, deferred func(p *Proc)) {
			k.Spawn("self", func(p *Proc) {
				defer deferred(p)
				p.Hold(3)
				p.Kill()
				t.Error("Kill returned on self-kill")
			})
			k.Spawn("bystander", func(p *Proc) {
				defer deferred(p)
				p.Hold(9)
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
		}},
		{"interrupt", 3, func(t *testing.T, k *Kernel, deferred func(p *Proc)) {
			for i := 0; i < 3; i++ {
				k.Spawn(fmt.Sprintf("spin%d", i), func(p *Proc) {
					defer deferred(p)
					for {
						p.Hold(1)
					}
				})
			}
			go func() {
				time.Sleep(2 * time.Millisecond)
				k.Interrupt("deadline")
			}()
			var ie *ErrInterrupted
			if err := k.Run(); !errors.As(err, &ie) {
				t.Fatalf("Run = %v, want ErrInterrupted", err)
			}
		}},
		{"abort-paused", 3, func(t *testing.T, k *Kernel, deferred func(p *Proc)) {
			var q WaitQueue
			k.Spawn("queued", func(p *Proc) {
				defer deferred(p)
				q.Wait(p)
			})
			for i := 0; i < 2; i++ {
				k.Spawn(fmt.Sprintf("held%d", i), func(p *Proc) {
					defer deferred(p)
					p.Hold(100)
				})
			}
			if done, err := k.RunUntil(50); done || err != nil {
				t.Fatalf("RunUntil = (%v, %v), want paused", done, err)
			}
			k.AbortPaused()
			if _, err := k.RunUntil(Infinity); !errors.Is(err, ErrStopped) {
				t.Fatalf("RunUntil after abort = %v, want ErrStopped", err)
			}
		}},
		{"panic", 3, func(t *testing.T, k *Kernel, deferred func(p *Proc)) {
			var q WaitQueue
			for i := 0; i < 2; i++ {
				k.Spawn(fmt.Sprintf("parked%d", i), func(p *Proc) {
					defer deferred(p)
					q.Wait(p)
				})
			}
			k.Spawn("bomb", func(p *Proc) {
				defer deferred(p)
				p.Hold(2)
				panic("boom")
			})
			var pp *ProcPanic
			if err := k.Run(); !errors.As(err, &pp) || pp.Proc != "bomb" || pp.Value != "boom" {
				t.Fatalf("Run = %v, want *ProcPanic from bomb", err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			k := NewKernel()
			ran := map[string]int{}
			tc.run(t, k, func(p *Proc) { ran[p.Name()]++ })
			n := 0
			for name, c := range ran {
				if c != 1 {
					t.Errorf("%s: deferred function ran %d times", name, c)
				}
				n += c
			}
			if n != tc.defers {
				t.Errorf("%d deferred functions ran, want %d", n, tc.defers)
			}
			waitGoroutines(t, base)
		})
	}
}
