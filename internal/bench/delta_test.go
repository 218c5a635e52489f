package bench

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/riscv"
	"repro/internal/vpi"
)

// This file pins the activity-driven scheduler to exhaustive
// re-evaluation over the real Figure 5 machines: for randomized
// breakpoint sets on RISC-V workloads, delta scheduling must produce
// the identical stop sequence — times, locations, hit instances, frame
// values — as evaluating every group at every clock edge.

// xorshift is the deterministic rng for breakpoint-set selection.
func xorshift(seed uint64) func() uint64 {
	state := seed
	return func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
}

// bpChoice describes one randomized arming decision, derived from the
// symbol table (identical across machines of the same workload).
type bpChoice struct {
	file     string
	line     int
	instance string // empty: all instances
	cond     string // empty: unconditional
}

// chooseBreakpoints derives a deterministic random breakpoint set from
// the machine's symbol table.
func chooseBreakpoints(m *riscv.Machine, rnd func() uint64, n int) []bpChoice {
	type loc struct {
		file string
		line int
	}
	var locs []loc
	for _, f := range m.Table.Files() {
		for _, l := range m.Table.Lines(f) {
			locs = append(locs, loc{f, l})
		}
	}
	var out []bpChoice
	for i := 0; i < n && len(locs) > 0; i++ {
		pick := locs[rnd()%uint64(len(locs))]
		c := bpChoice{file: pick.file, line: pick.line}
		bps := m.Table.BreakpointsAt(pick.file, pick.line)
		if len(bps) == 0 {
			continue
		}
		// A third of the picks get a user condition on a scoped
		// variable, another third are instance-scoped.
		switch rnd() % 3 {
		case 0:
			if vars := m.Table.ScopeVars(bps[0].ID); len(vars) > 0 {
				v := vars[rnd()%uint64(len(vars))]
				c.cond = fmt.Sprintf("%s %% %d == %d", v.Name, 5+rnd()%11, rnd()%4)
			}
		case 1:
			c.instance = bps[rnd()%uint64(len(bps))].InstanceName
		}
		out = append(out, c)
	}
	return out
}

// runStops executes one workload with the chosen breakpoints under one
// scheduling mode and returns the stop-sequence signatures plus the
// runtime (for activity stats). Stops are capped so unconditional
// breakpoints on hot lines stay affordable; the cap cuts both modes at
// the same stop index, so comparisons stay exact.
func runStops(t *testing.T, w *riscv.Workload, choices []bpChoice, exhaustive bool) ([]string, *core.Runtime) {
	t.Helper()
	return runStopsWith(t, w, choices, func(rt *core.Runtime) { rt.SetExhaustiveEval(exhaustive) })
}

// runStopsWith is the configurable form: the callback picks the
// scheduling mode (exhaustive / fused / general) before arming.
func runStopsWith(t *testing.T, w *riscv.Workload, choices []bpChoice, configure func(*core.Runtime)) ([]string, *core.Runtime) {
	t.Helper()
	nCores := 1
	if w.MT {
		nCores = 2
	}
	m, err := riscv.NewMachine(nCores, false)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.New(vpi.NewSimBackend(m.Sim), m.Table)
	if err != nil {
		t.Fatal(err)
	}
	configure(rt)
	armed := 0
	for _, c := range choices {
		if c.instance != "" {
			if _, err := rt.AddBreakpointInstance(c.file, c.line, c.instance, c.cond); err == nil {
				armed++
			}
			continue
		}
		if _, err := rt.AddBreakpoint(c.file, c.line, c.cond); err == nil {
			armed++
		}
	}
	if armed == 0 {
		t.Fatalf("no breakpoint of %d choices armed", len(choices))
	}
	const stopCap = 3000
	var stops []string
	rt.SetHandler(func(ev *core.StopEvent) core.Command {
		sig := fmt.Sprintf("t=%d %s:%d rev=%v step=%v", ev.Time, ev.File, ev.Line, ev.Reverse, ev.StepStop)
		for _, th := range ev.Threads {
			sig += fmt.Sprintf(" [%s#%d", th.Instance, th.BreakpointID)
			for _, v := range th.Locals {
				sig += fmt.Sprintf(" %s=%d/%v/%s", v.Name, v.Value, v.Unknown, v.Display())
			}
			sig += "]"
		}
		for _, wh := range ev.Watch {
			sig += fmt.Sprintf(" w%d:%d->%d/%s->%s", wh.ID, wh.Old, wh.New, wh.OldDisplay, wh.NewDisplay)
		}
		stops = append(stops, sig)
		if len(stops) >= stopCap {
			return core.CmdDetach
		}
		return core.CmdContinue
	})
	for i := range m.Cores {
		if err := m.Load(i, w.Prog); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(w.MaxCycles); err != nil {
		t.Fatal(err)
	}
	return stops, rt
}

// TestDeltaStopEquivalenceRISCV is the acceptance differential: over
// randomized breakpoint sets on the RISC-V workloads, delta scheduling
// and exhaustive evaluation produce identical stop sequences; and on
// the idle-core workload the delta scheduler demonstrably skips work.
func TestDeltaStopEquivalenceRISCV(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload runs")
	}
	byName := workloadsByName()
	for _, tc := range []struct {
		workload string
		seed     uint64
		rounds   int
	}{
		{"towers", 0x9E3779B97F4A7C15, 2},
		{"vvadd", 0xBF58476D1CE4E5B9, 1},
		{"mt-idle", 0x94D049BB133111EB, 2},
	} {
		ws := byName[tc.workload]
		if len(ws) == 0 {
			t.Fatalf("workload %s missing", tc.workload)
		}
		w := ws[0]
		rnd := xorshift(tc.seed)
		for round := 0; round < tc.rounds; round++ {
			t.Run(fmt.Sprintf("%s/round%d", tc.workload, round), func(t *testing.T) {
				// Derive choices from a throwaway machine's table (the
				// table is identical for every machine of a workload).
				probe, err := riscv.NewMachine(map[bool]int{true: 2, false: 1}[w.MT], false)
				if err != nil {
					t.Fatal(err)
				}
				choices := chooseBreakpoints(probe, rnd, 6)
				exhaustive, _ := runStops(t, w, choices, true)
				delta, rt := runStops(t, w, choices, false)
				if len(delta) != len(exhaustive) {
					t.Fatalf("stop counts differ: delta=%d exhaustive=%d", len(delta), len(exhaustive))
				}
				for i := range delta {
					if delta[i] != exhaustive[i] {
						t.Fatalf("stop %d differs:\ndelta:      %s\nexhaustive: %s", i, delta[i], exhaustive[i])
					}
				}
				skipped, evaluated, _ := rt.ActivityStats()
				t.Logf("%s round %d: %d stops, delta skipped=%d evaluated=%d",
					tc.workload, round, len(delta), skipped, evaluated)
				if tc.workload == "mt-idle" && skipped == 0 && len(exhaustive) > 0 {
					t.Error("idle-core workload skipped nothing")
				}
			})
		}
	}
}
