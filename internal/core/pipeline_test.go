package core

import (
	"fmt"
	"testing"

	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/generator"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/rtl"
	"repro/internal/sim"
	"repro/internal/symtab"
	"repro/internal/vpi"
)

// TestCompiledMatchesTreeWalk drives the full runtime and, cycle by
// cycle, cross-checks the compiled pipeline (batched prefetch + program
// execution) against the tree-walk reference evaluator for every armed
// breakpoint.
func TestCompiledMatchesTreeWalk(t *testing.T) {
	d := buildCounterDesign(t, false)
	rt, err := New(vpi.NewSimBackend(d.sim), d.table)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddBreakpoint("core_test.go", d.incLine, "count % 7 == 3 && count[2:0] != 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddBreakpoint("core_test.go", d.defLine, "nxt > 40"); err != nil {
		t.Fatal(err)
	}
	d.sim.Poke("Counter.en", 1)
	agreed := 0
	for cycle := 0; cycle < 200; cycle++ {
		rt.ensurePrefetch(d.sim.Time())
		rt.mu.Lock()
		armed := make([]*insertedBP, 0, len(rt.inserted))
		for _, ibp := range rt.inserted {
			armed = append(armed, ibp)
		}
		rt.mu.Unlock()
		for _, ibp := range armed {
			compiled := rt.evalBP(ibp)
			tree := rt.evalBPTree(ibp)
			if compiled != tree {
				t.Fatalf("cycle %d bp %d: compiled=%v tree=%v", cycle, ibp.bp.ID, compiled, tree)
			}
			agreed++
		}
		d.sim.Step()
	}
	if agreed == 0 {
		t.Fatal("no evaluations compared")
	}
}

// evalBPTree is the two-state tree-walk reference implementation of
// evalBP, the oracle the compiled pipeline is differentially tested
// against. It resolves every name through its condition's bound path
// map.
func (rt *Runtime) evalBPTree(ibp *insertedBP) bool {
	for _, b := range []*boundExpr{ibp.enable, ibp.cond} {
		if b == nil {
			continue
		}
		v, err := b.node.Eval(expr.ResolverFunc(func(name string) (eval.Value, error) {
			return rt.backend.GetValue(b.byName[name])
		}))
		if err != nil || !v.IsTrue() {
			return false
		}
	}
	return true
}

// TestCompiledBreakpointStops checks end-to-end stop behavior through
// the batched scheduler: a conditional breakpoint fires exactly when
// its condition holds.
func TestCompiledBreakpointStops(t *testing.T) {
	d := buildCounterDesign(t, false)
	rt, err := New(vpi.NewSimBackend(d.sim), d.table)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddBreakpoint("core_test.go", d.incLine, "count == 5"); err != nil {
		t.Fatal(err)
	}
	var hits []uint64
	rt.SetHandler(func(ev *StopEvent) Command {
		for _, th := range ev.Threads {
			for _, v := range th.Locals {
				if v.Name == "count" {
					hits = append(hits, v.Value)
				}
			}
		}
		return CmdContinue
	})
	d.sim.Poke("Counter.en", 1)
	d.sim.Run(20)
	if len(hits) != 1 || hits[0] != 5 {
		t.Fatalf("hits = %v, want [5]", hits)
	}
}

// buildManyInstances makes a design with n leaf instances all hitting
// the same conditional source line, plus the armed runtime.
func buildManyInstances(t *testing.T, n int) (*sim.Simulator, *Runtime) {
	t.Helper()
	c := generator.NewCircuit("Top")
	child := c.NewModule("Leaf")
	din := child.Input("d", ir.UIntType(8))
	q := child.Output("q", ir.UIntType(8))
	acc := child.RegInit("acc", ir.UIntType(8), child.Lit(0, 8))
	child.When(din.Bit(0), func() {
		acc.Set(acc.AddMod(din))
	})
	q.Set(acc)
	top := c.NewModule("Top")
	x := top.Input("x", ir.UIntType(8))
	y := top.Output("y", ir.UIntType(8))
	sum := top.Wire("s", ir.UIntType(8))
	sum.Set(top.Lit(0, 8))
	for i := 0; i < n; i++ {
		u := top.Instance(fmt.Sprintf("u%02d", i), child)
		u.IO("d").Set(x)
		sum.Set(sum.AddMod(u.IO("q")))
	}
	y.Set(sum)
	comp, err := passes.Compile(c.MustBuild(), false)
	if err != nil {
		t.Fatal(err)
	}
	table, err := symtab.Build(comp)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := rtl.Elaborate(comp.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(nl)
	rt, err := New(vpi.NewSimBackend(s), table)
	if err != nil {
		t.Fatal(err)
	}
	var file string
	var line int
	for _, f := range table.Files() {
		for _, l := range table.Lines(f) {
			for _, bp := range table.BreakpointsAt(f, l) {
				if bp.Enable != "" {
					file, line = f, l
				}
			}
		}
	}
	if _, err := rt.AddBreakpoint(file, line, ""); err != nil {
		t.Fatal(err)
	}
	return s, rt
}

// TestWorkerPoolGroupEvaluation arms one breakpoint across many
// instances and checks every member evaluates (in order, on the
// simulation goroutine) and stops as one multi-threaded event.
func TestWorkerPoolGroupEvaluation(t *testing.T) {
	const n = 16
	s, rt := buildManyInstances(t, n)
	threads := 0
	rt.SetHandler(func(ev *StopEvent) Command {
		threads += len(ev.Threads)
		return CmdContinue
	})
	s.Poke("Top.x", 3) // odd: every instance's enable holds each cycle
	s.Run(4)
	if threads != 4*n {
		t.Fatalf("threads = %d, want %d", threads, 4*n)
	}
	evals, stops := rt.Stats()
	if evals == 0 || stops != 4 {
		t.Fatalf("stats = (%d evals, %d stops), want (>0, 4)", evals, stops)
	}
}

// TestDetachFromHandlerMidEdge: a handler that calls Detach directly
// (instead of returning CmdDetach) and then continues must not crash
// the scheduler, and the detached runtime must not stop again.
func TestDetachFromHandlerMidEdge(t *testing.T) {
	s, rt := buildManyInstances(t, 8)
	stops := 0
	rt.SetHandler(func(ev *StopEvent) Command {
		stops++
		rt.Detach()
		return CmdContinue
	})
	s.Poke("Top.x", 3)
	s.Run(3)
	if stops != 1 {
		t.Fatalf("stops = %d, want 1 (detached after first)", stops)
	}
}

// TestPrefetchInvalidatedAfterHandler: a value deposited while stopped
// must be visible to conditions evaluated later in the same edge.
func TestPrefetchInvalidatedAfterHandler(t *testing.T) {
	d := buildCounterDesign(t, false)
	rt, err := New(vpi.NewSimBackend(d.sim), d.table)
	if err != nil {
		t.Fatal(err)
	}
	// defLine schedules before incLine within a cycle; poking count while
	// stopped at defLine must affect incLine's condition the same cycle.
	if _, err := rt.AddBreakpoint("core_test.go", d.defLine, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddBreakpoint("core_test.go", d.incLine, "count == 77"); err != nil {
		t.Fatal(err)
	}
	sawInc := false
	rt.SetHandler(func(ev *StopEvent) Command {
		switch ev.Line {
		case d.defLine:
			if err := rt.Backend().SetValue("Counter.count", 77); err != nil {
				t.Fatalf("set value: %v", err)
			}
		case d.incLine:
			sawInc = true
		}
		return CmdContinue
	})
	d.sim.Poke("Counter.en", 1)
	d.sim.Run(1)
	if !sawInc {
		t.Fatal("condition did not observe the deposited value: stale prefetch")
	}
}

// TestShortCircuitUnresolvableName pins the eager-gather divergence
// fix: compiled execution fails on a condition naming an unresolvable
// signal, and the general evaluator must then short-circuit past that
// name exactly as the language defines — hitting when the deciding
// side holds, and missing without error when it does not. Each case
// runs in the default mode and under both differential oracles.
func TestShortCircuitUnresolvableName(t *testing.T) {
	cases := []struct {
		cond  string
		stops int
	}{
		{"count >= 0 || no_such_signal", 3},
		{"count > 100 && no_such_signal", 0},
		{"en ? count >= 0 : no_such_signal", 3},
	}
	modes := []struct {
		name      string
		configure func(*Runtime)
	}{
		{"default", func(*Runtime) {}},
		{"exhaustive", func(rt *Runtime) { rt.SetExhaustiveEval(true) }},
		{"general", func(rt *Runtime) { rt.SetGeneralEval(true) }},
	}
	for _, tc := range cases {
		for _, m := range modes {
			t.Run(tc.cond+"/"+m.name, func(t *testing.T) {
				d := buildCounterDesign(t, false)
				rt, err := New(vpi.NewSimBackend(d.sim), d.table)
				if err != nil {
					t.Fatal(err)
				}
				m.configure(rt)
				if _, err := rt.AddBreakpoint("core_test.go", d.incLine, tc.cond); err != nil {
					t.Fatal(err)
				}
				stops := 0
				rt.SetHandler(func(ev *StopEvent) Command {
					stops++
					return CmdContinue
				})
				d.sim.Poke("Counter.en", 1)
				d.sim.Run(3)
				if stops != tc.stops {
					t.Fatalf("stops = %d, want %d", stops, tc.stops)
				}
			})
		}
	}
}

// TestUnverifiedDepStaysOutOfBatchUnion pins the union-poisoning fix:
// one condition with an unresolvable name must not force the whole
// prefetch into per-path fallback — the bad name stays out of the
// union, and healthy breakpoints keep hitting.
func TestUnverifiedDepStaysOutOfBatchUnion(t *testing.T) {
	d := buildCounterDesign(t, false)
	rt, err := New(vpi.NewSimBackend(d.sim), d.table)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddBreakpoint("core_test.go", d.incLine, "bogus_xyz > 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddBreakpoint("core_test.go", d.defLine, "count == 2"); err != nil {
		t.Fatal(err)
	}
	stops := 0
	rt.SetHandler(func(ev *StopEvent) Command {
		stops++
		return CmdContinue
	})
	d.sim.Poke("Counter.en", 1)
	d.sim.Run(10)
	if stops != 1 {
		t.Fatalf("stops = %d, want 1 (healthy breakpoint unaffected)", stops)
	}
	for _, p := range rt.depUnion {
		if p == "bogus_xyz" {
			t.Fatalf("unverified path %q leaked into the batch union %v", p, rt.depUnion)
		}
	}
	if len(rt.depUnion) == 0 {
		t.Fatal("union empty: batching disabled entirely")
	}
}

// TestWatchAndBreakpointResolveIdentically pins the satellite fix: a
// watch and a breakpoint condition naming the same instance variable
// must resolve to the same simulator path.
func TestWatchAndBreakpointResolveIdentically(t *testing.T) {
	d := buildCounterDesign(t, false)
	rt, err := New(vpi.NewSimBackend(d.sim), d.table)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddWatch("Counter", "count"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddBreakpoint("core_test.go", d.incLine, "count == 1"); err != nil {
		t.Fatal(err)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var bpPath string
	for _, ibp := range rt.inserted {
		if ibp.cond != nil && len(ibp.cond.paths) == 1 {
			bpPath = ibp.cond.paths[0]
		}
	}
	w := rt.watches[0]
	if len(w.bound.paths) != 1 || bpPath == "" || w.bound.paths[0] != bpPath {
		t.Fatalf("watch path %v != breakpoint path %q", w.bound.paths, bpPath)
	}
}
