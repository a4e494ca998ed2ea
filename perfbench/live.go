package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"github.com/netsec-lab/rovista/internal/core"
	"github.com/netsec-lab/rovista/internal/store"
)

// setupReps is how many times a run sets its system up; setup_s is the
// median, so one slow build does not move the figure.
const setupReps = 5

// live is a measured world ready for rounds: converged at day 0, with the
// first cold round measured and archived, as rovistad has it before it
// opens its listener.
type live struct {
	w        *core.World
	runner   *core.Runner
	st       *store.Store
	baseline *core.Snapshot
	openTime time.Duration
}

// setupLive builds the world for cfg and brings it to the state above,
// with a runner seeded by runnerSeed.
func setupLive(cfg core.WorldConfig, runnerSeed int64, dir string) (*live, error) {
	w, err := core.BuildWorld(cfg)
	if err != nil {
		return nil, err
	}
	if err := w.AdvanceTo(0); err != nil {
		return nil, err
	}
	runner := core.NewRunner(w, core.DefaultRunnerConfig(runnerSeed))
	t := time.Now()
	st, err := store.Open(dir, store.Config{})
	if err != nil {
		return nil, err
	}
	openTime := time.Since(t)
	snap := runner.Measure()
	if err := st.Append(store.FromSnapshot(snap)); err != nil {
		st.Close()
		return nil, err
	}
	return &live{w: w, runner: runner, st: st, baseline: snap, openTime: openTime}, nil
}

// setupTimed runs setup setupReps times and keeps the last system. It
// returns the median set-up time; earlier systems are closed and collected
// between repetitions, outside the timed region.
func setupTimed[T any](dir string, setup func(dir string) (T, error), release func(T)) (T, float64, error) {
	var kept T
	var secs []float64
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		v, err := setup(filepath.Join(dir, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return kept, 0, err
		}
		secs = append(secs, time.Since(t).Seconds())
		if i < setupReps-1 {
			release(v)
			runtime.GC()
			continue
		}
		kept = v
	}
	return kept, median(secs), nil
}
