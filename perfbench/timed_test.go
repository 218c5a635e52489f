package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/replay"
	"repro/internal/riscv"
	"repro/internal/rtl"
	"repro/internal/vpi"
)

// runState is what one runtime showed over a run: every stop, in order,
// plus its counters.
type runState struct {
	stops            []uint64
	evals, nstops    uint64
	skipped, evalled uint64
	partial          uint64
	fuse             expr.FuseStats
	fused            bool
}

func stateOf(rt *core.Runtime, stops []uint64) runState {
	st := runState{stops: stops}
	st.evals, st.nstops = rt.Stats()
	st.skipped, st.evalled, st.partial = rt.ActivityStats()
	st.fuse, st.fused = rt.FuseInfo()
	return st
}

func compareStates(t *testing.T, plain, timed runState) {
	t.Helper()
	if len(plain.stops) == 0 {
		t.Fatal("the run never stopped; the comparison proves nothing")
	}
	if len(plain.stops) != len(timed.stops) {
		t.Fatalf("stop count: unwrapped %d, wrapped %d", len(plain.stops), len(timed.stops))
	}
	for i := range plain.stops {
		if plain.stops[i] != timed.stops[i] {
			t.Fatalf("stop %d differs", i)
		}
	}
	plain.stops, timed.stops = nil, nil
	if plain.evals != timed.evals || plain.nstops != timed.nstops || plain.skipped != timed.skipped ||
		plain.evalled != timed.evalled || plain.partial != timed.partial || plain.fuse != timed.fuse || plain.fused != timed.fused {
		t.Fatalf("counters differ:\nunwrapped %+v\nwrapped   %+v", plain, timed)
	}
	if plain.partial == 0 {
		t.Error("no delta-bounded refresh: the backend's change reporting was not used")
	}
}

// runFig5Program runs one Figure 5 program with a seeded armed set on a
// fresh machine, optionally behind the timing wrapper.
func runFig5Program(t *testing.T, w *riscv.Workload, seed uint64, wrap bool) runState {
	t.Helper()
	m, err := riscv.NewMachine(1, false)
	if err != nil {
		t.Fatal(err)
	}
	var backend vpi.Interface = vpi.NewSimBackend(m.Sim)
	if wrap {
		backend = wrapBackend(backend, newTracer())
	}
	rt, err := core.New(backend, m.Table)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Detach()
	r := newRNG(seed, "test")
	if _, err := armAll(rt, armSet(r, m.Table, 75, 4, 256)); err != nil {
		t.Fatal(err)
	}
	var stops []uint64
	rt.SetHandler(func(ev *core.StopEvent) core.Command {
		stops = append(stops, stopDigest(ev))
		return core.CmdContinue
	})
	res := &result{}
	if err := loadAndReset(m, w); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(w.MaxCycles); err != nil {
		t.Fatal(err)
	}
	checkResult(res, m, w)
	if res.failed != 0 {
		t.Fatalf("program check failed: %v", res.failures)
	}
	return stateOf(rt, stops)
}

// TestTimedBackendIdentityLive: behind the timing wrapper, a live
// runtime stops at the same places with the same frames and counts the
// same work as without it.
func TestTimedBackendIdentityLive(t *testing.T) {
	for _, w := range riscv.Workloads() {
		if w.Name != "towers" && w.Name != "qsort" {
			continue
		}
		t.Run(w.Name, func(t *testing.T) {
			compareStates(t, runFig5Program(t, w, 7, false), runFig5Program(t, w, 7, true))
		})
	}
}

// TestTimedBackendIdentityReplay: the same on the replay backend, with
// reverse steps, so the wrapped SetTime, Prefetch and change reporting
// are all exercised.
func TestTimedBackendIdentityReplay(t *testing.T) {
	fx, err := prepareReplayFixture(t.TempDir(), 3, &result{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(tr *tracer) runState {
		rs, err := setupReplay(fx, 3, tr)
		if err != nil {
			t.Fatal(err)
		}
		defer rs.close()
		drv := &replayDriver{res: &result{}, fx: fx, tr: tr, r: newRNG(3, "test"), digests: []uint64{}}
		rs.rt.SetHandler(drv.onStop)
		for i := 0; i < 4000 && rs.eng.StepForward(); i++ {
		}
		if drv.res.failed != 0 {
			t.Fatalf("oracle check failed: %v", drv.res.failures)
		}
		if len(drv.revCross) == 0 {
			t.Fatal("no reverse step crossed a cycle")
		}
		return stateOf(rs.rt, drv.digests)
	}
	compareStates(t, run(nil), run(newTracer()))
}

// bareBackend implements only vpi.Interface.
type bareBackend struct{ vpi.Interface }

func (bareBackend) Hierarchy() *rtl.InstanceNode        { return nil }
func (bareBackend) GetValue(string) (eval.Value, error) { return eval.Value{}, nil }

// TestTimedBackendCapabilities: the wrapper advertises change reporting
// and prefetch exactly when the wrapped backend has them.
func TestTimedBackendCapabilities(t *testing.T) {
	m, err := riscv.NewMachine(1, false)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := prepareReplayFixture(t.TempDir(), 1, &result{})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := setupReplay(fx, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.close()
	for _, tc := range []struct {
		name  string
		inner vpi.Interface
	}{
		{"sim", vpi.NewSimBackend(m.Sim)},
		{"replay", replay.NewStore(rs.store)},
		{"bare", bareBackend{}},
	} {
		w := wrapBackend(tc.inner, nil)
		_, innerCR := tc.inner.(vpi.ChangeReporter)
		_, innerPF := tc.inner.(vpi.Prefetcher)
		_, cr := w.(vpi.ChangeReporter)
		_, pf := w.(vpi.Prefetcher)
		if cr != innerCR || pf != innerPF {
			t.Errorf("%s: wrapper ChangeReporter=%v Prefetcher=%v, backend %v/%v", tc.name, cr, pf, innerCR, innerPF)
		}
		for _, ok := range []bool{
			func() bool { _, ok := w.(vpi.BatchReaderInto); return ok }(),
			func() bool { _, ok := w.(vpi.BatchReader); return ok }(),
			func() bool { _, ok := w.(vpi.BitsReader); return ok }(),
		} {
			if !ok {
				t.Errorf("%s: wrapper lost a read capability", tc.name)
			}
		}
	}
}
