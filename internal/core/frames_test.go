package core

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/replay"
	"repro/internal/riscv"
	"repro/internal/vcd"
	"repro/internal/vpi"
)

// TestStructureNumericIndexOrder pins the ordering fix for flattened
// vector elements: bracketed indices sort numerically (v[2] < v[10]),
// not lexicographically (v[10] < v[2]). DAP variable expansion renders
// Structure's child order directly, so this is user-visible.
func TestStructureNumericIndexOrder(t *testing.T) {
	vars := []Variable{
		{Name: "v[10].bits", Value: 10},
		{Name: "v[2].bits", Value: 2},
		{Name: "v[0].bits", Value: 0},
		{Name: "v[1].bits", Value: 1},
		{Name: "io.valid", Value: 1},
	}
	tree := Structure(vars)
	// splitDots keeps bracketed indices attached to their segment, so
	// each v[N] is its own top-level node alongside io.
	want := []string{"io", "v[0]", "v[1]", "v[2]", "v[10]"}
	if len(tree) != len(want) {
		t.Fatalf("top-level nodes = %d, want %d", len(tree), len(want))
	}
	for i, w := range want {
		if got := tree[i].Name; got != w {
			t.Fatalf("node %d = %q, want %q (indices must order numerically)", i, got, w)
		}
	}
	for _, sv := range tree[1:] {
		if len(sv.Children) != 1 || sv.Children[0].Name != "bits" {
			t.Fatalf("%s children = %+v, want one leaf 'bits'", sv.Name, sv.Children)
		}
	}
}

// TestNaturalLess pins the comparator itself, including the totality
// tie-breaks for different spellings of the same number.
func TestNaturalLess(t *testing.T) {
	ordered := []string{
		"a", "a[0]", "a[1]", "a[2]", "a[10]", "a[11]", "b",
		"v2", "v10", "w[1].x", "w[1].y", "w[2].x",
	}
	for i := range ordered {
		for j := range ordered {
			got := naturalLess(ordered[i], ordered[j])
			if want := i < j; got != want {
				t.Errorf("naturalLess(%q, %q) = %v, want %v", ordered[i], ordered[j], got, want)
			}
		}
	}
	// Equal-value different-spelling pairs stay a strict weak order.
	if naturalLess("a07", "a7") == naturalLess("a7", "a07") {
		t.Fatal("naturalLess is not antisymmetric on 07 vs 7")
	}
	// The frame-plan sorter uses the same comparator.
	rt := &Runtime{frameSlots: []frameSlot{{name: "r[10]"}, {name: "r[9]"}, {name: "r[1]"}}}
	plan := framePlan{0, 1, 2}
	rt.sortPlan(plan)
	var got []string
	for _, i := range plan {
		got = append(got, rt.frameSlots[i].name)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return naturalLess(got[i], got[j]) }) ||
		got[0] != "r[1]" || got[1] != "r[9]" || got[2] != "r[10]" {
		t.Fatalf("sortPlan order = %v", got)
	}
}

// referenceThreads rebuilds a stop's threads without frame plans, the
// way every stop once did: symbol-table selects, ToSim and a natural
// sort per stop, then one backend read per variable. It runs inside
// the handler, so it reads the same simulation state the stop did.
func referenceThreads(rt *Runtime, ev *StopEvent) []Thread {
	read := func(name, full string) Variable {
		b, err := vpi.ReadBits(rt.backend, full)
		if err != nil {
			return Variable{Name: name, RTL: full, Unknown: true}
		}
		v := Variable{Name: name, RTL: full}
		v.SetBits(b)
		return v
	}
	sortVars := func(vars []Variable) {
		sort.Slice(vars, func(i, j int) bool { return naturalLess(vars[i].Name, vars[j].Name) })
	}
	var out []Thread
	for _, got := range ev.Threads {
		th := Thread{BreakpointID: got.BreakpointID, Instance: got.Instance}
		for _, b := range rt.table.ScopeVars(got.BreakpointID) {
			th.Locals = append(th.Locals, read(b.Name, rt.remap.ToSim(got.Instance+"."+b.RTL)))
		}
		if id, ok := rt.table.InstanceIDByName(got.Instance); ok {
			for _, b := range rt.table.GeneratorVars(id) {
				th.Generator = append(th.Generator, read(b.Name, rt.remap.ToSim(got.Instance+"."+b.RTL)))
			}
		}
		sortVars(th.Locals)
		sortVars(th.Generator)
		out = append(out, th)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Instance < out[j].Instance })
	return out
}

// frameCheck is a stepping handler that checks every stop's threads
// against referenceThreads and then asks next for the command.
type frameCheck struct {
	t       *testing.T
	rt      *Runtime
	stops   int
	reverse int             // stops reached by reverse execution
	unknown map[string]bool // RTL paths of Unknown variables seen
	failed  bool            // a mismatch was reported; the handler detaches
	next    func(ev *StopEvent, n int) Command
}

func (fc *frameCheck) handle(ev *StopEvent) Command {
	fc.stops++
	if ev.Reverse {
		fc.reverse++
	}
	want := referenceThreads(fc.rt, ev)
	if !reflect.DeepEqual(ev.Threads, want) {
		fc.t.Errorf("stop %d (t=%d %s:%d reverse=%v): frame differs from the reference\n got %+v\nwant %+v",
			fc.stops, ev.Time, ev.File, ev.Line, ev.Reverse, ev.Threads, want)
		fc.failed = true
		return CmdDetach
	}
	for _, th := range ev.Threads {
		for _, vars := range [][]Variable{th.Locals, th.Generator} {
			for _, v := range vars {
				if v.Unknown {
					fc.unknown[v.RTL] = true
				}
			}
		}
	}
	return fc.next(ev, fc.stops)
}

// forwardMix steps forward three statements for every one stepped
// back, so intra-cycle reverse stepping is covered while the walk
// still advances.
func forwardMix(_ *StopEvent, n int) Command {
	if n%4 == 0 {
		return CmdReverseStep
	}
	return CmdStep
}

// loadSoC builds the one-core SoC with a single-core Fig 5 program
// loaded and reset.
func loadSoC(t *testing.T, debug bool) *riscv.Machine {
	t.Helper()
	m, err := riscv.NewMachine(1, debug)
	if err != nil {
		t.Fatal(err)
	}
	w := riscv.Workloads()[0]
	if w.MT {
		t.Fatalf("workload %s is multi-core", w.Name)
	}
	if err := m.Load(0, w.Prog); err != nil {
		t.Fatal(err)
	}
	if err := m.Reset(); err != nil {
		t.Fatal(err)
	}
	return m
}

// hideSignal renames one $var declaration of a VCD header so the
// signal at full path is absent from the parsed trace.
func hideSignal(t *testing.T, data []byte, full string) []byte {
	t.Helper()
	lines := strings.Split(string(data), "\n")
	var scope []string
	for i, ln := range lines {
		f := strings.Fields(ln)
		switch {
		case len(f) >= 3 && f[0] == "$scope":
			scope = append(scope, f[2])
		case len(f) >= 1 && f[0] == "$upscope":
			scope = scope[:len(scope)-1]
		case len(f) >= 5 && f[0] == "$var" && strings.Join(scope, ".")+"."+f[4] == full:
			f[4] += "__absent"
			lines[i] = strings.Join(f, " ")
			return []byte(strings.Join(lines, "\n"))
		}
	}
	t.Fatalf("%s not declared in the trace", full)
	return nil
}

// TestFramePlansMatchReference is the frame differential: stepping
// through every statement of the one-core SoC, in optimized and debug
// builds, live and replayed from a recorded trace, forward and
// reverse, every stop's threads — names, order, RTL paths, values,
// Unknown markers and x planes — equal the per-stop reference. The
// replayed trace lacks one frame variable, which must stay Unknown.
func TestFramePlansMatchReference(t *testing.T) {
	const cycles = 12
	for _, debug := range []bool{false, true} {
		build := "opt"
		if debug {
			build = "debug"
		}
		t.Run(build+"/live", func(t *testing.T) {
			m := loadSoC(t, debug)
			rt, err := New(vpi.NewSimBackend(m.Sim), m.Table)
			if err != nil {
				t.Fatal(err)
			}
			fc := &frameCheck{t: t, rt: rt, unknown: map[string]bool{}, next: forwardMix}
			rt.SetHandler(fc.handle)
			rt.InterruptNext()
			for i := 0; i < cycles && !fc.failed; i++ {
				m.Sim.Step()
			}
			t.Logf("live: %d stops, %d reverse", fc.stops, fc.reverse)
			if fc.stops < cycles || fc.reverse == 0 {
				t.Fatalf("walk too short: %d stops, %d reverse", fc.stops, fc.reverse)
			}
		})
		t.Run(build+"/replay", func(t *testing.T) {
			m := loadSoC(t, debug)
			var buf bytes.Buffer
			rec := vcd.NewRecorder(m.Sim, &buf)
			m.Sim.Run(2 * cycles)
			if err := rec.Flush(); err != nil {
				t.Fatal(err)
			}
			// Hide the first scope variable of the first breakpoint
			// that has one.
			var hidden string
			for _, bp := range m.Table.AllBreakpoints() {
				if vars := m.Table.ScopeVars(bp.ID); len(vars) > 0 {
					hidden = bp.InstanceName + "." + vars[0].RTL
					break
				}
			}
			st, err := vcd.ParseStore(bytes.NewReader(hideSignal(t, buf.Bytes(), hidden)), vcd.StoreOptions{BlockSize: 4})
			if err != nil {
				t.Fatal(err)
			}
			eng := replay.NewStore(st, replay.WithCheckpointInterval(4))
			rt, err := New(eng, m.Table)
			if err != nil {
				t.Fatal(err)
			}
			// Step forward (with intra-cycle reverse steps) for a few
			// cycles, then reverse-step back across cycle boundaries.
			var turn uint64
			fc := &frameCheck{t: t, rt: rt, unknown: map[string]bool{}}
			fc.next = func(ev *StopEvent, n int) Command {
				switch {
				case turn == 0 && ev.Time < cycles/2:
					return forwardMix(ev, n)
				case turn == 0:
					turn = ev.Time
				case ev.Time+3 <= turn:
					return CmdDetach
				}
				return CmdReverseStep
			}
			rt.SetHandler(fc.handle)
			rt.InterruptNext()
			for eng.StepForward() && !fc.failed && turn == 0 {
			}
			if turn == 0 || fc.reverse == 0 {
				t.Fatalf("walk never reversed: %d stops", fc.stops)
			}
			t.Logf("replay: %d stops, %d reverse, turned at t=%d", fc.stops, fc.reverse, turn)
			if want := rt.Remap().ToSim(hidden); !fc.unknown[want] {
				t.Fatalf("%s is missing from the trace but never showed as Unknown (Unknown: %v)", want, fc.unknown)
			}
		})
	}
}

// TestStopFrameAllocs pins the per-stop cost of frame plans: stepping
// every statement of the live one-core SoC allocates at most 16 times
// per stop once each breakpoint's plan is built (rebuilding the frame
// from the symbol table at every stop cost about 148).
func TestStopFrameAllocs(t *testing.T) {
	m := loadSoC(t, false)
	rt, err := New(vpi.NewSimBackend(m.Sim), m.Table)
	if err != nil {
		t.Fatal(err)
	}
	stops := 0
	rt.SetHandler(func(*StopEvent) Command {
		stops++
		return CmdStep
	})
	rt.InterruptNext()
	m.Sim.Run(4) // build the plans of every breakpoint the program reaches
	var measured int
	allocs := testing.AllocsPerRun(1, func() {
		stops = 0
		m.Sim.Run(4)
		measured = stops
	})
	if measured == 0 {
		t.Fatal("no stops")
	}
	perStop := allocs / float64(measured)
	t.Logf("%d stops, %.1f allocs/stop", measured, perStop)
	if perStop > 16 {
		t.Fatalf("%.1f allocs per stepped stop, want <= 16", perStop)
	}
}

// TestEvaluateUnscopedRTLMatchesFrame pins evaluate without a
// breakpoint scope, the mid-run query path: stepping through every
// statement of the one-core SoC, evaluating each frame variable's
// instance-local RTL name with breakpoint id 0 returns the frame value
// (and fails where the frame shows Unknown).
// This is the query perfbench's step-session checks at its stops.
func TestEvaluateUnscopedRTLMatchesFrame(t *testing.T) {
	for _, debug := range []bool{false, true} {
		m := loadSoC(t, debug)
		rt, err := New(vpi.NewSimBackend(m.Sim), m.Table)
		if err != nil {
			t.Fatal(err)
		}
		stops, checked := 0, 0
		rt.SetHandler(func(ev *StopEvent) Command {
			stops++
			for _, th := range ev.Threads {
				prefix := rt.remap.ToSim(th.Instance) + "."
				for _, vars := range [][]Variable{th.Locals, th.Generator} {
					for _, v := range vars {
						name := strings.TrimPrefix(v.RTL, prefix)
						b, err := rt.EvaluateBits(0, th.Instance, name)
						checked++
						if v.Unknown {
							if err == nil {
								t.Fatalf("debug=%v t=%d %s: frame shows %s Unknown, evaluate answered %s", debug, ev.Time, th.Instance, name, b)
							}
							continue
						}
						var got Variable
						got.SetBits(b)
						if err != nil || !got.EqualValue(&v) || got.Width != v.Width {
							t.Fatalf("debug=%v t=%d bp %d %s: evaluate %s = %s (%v), frame %s",
								debug, ev.Time, th.BreakpointID, th.Instance, name, b, err, v.Display())
						}
					}
				}
			}
			return forwardMix(ev, stops)
		})
		rt.InterruptNext()
		m.Sim.Run(3)
		t.Logf("debug=%v: %d stops, %d variables", debug, stops, checked)
		if stops < 100 {
			t.Fatalf("walk too short: %d stops", stops)
		}
	}
}
