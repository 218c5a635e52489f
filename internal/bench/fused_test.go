package bench

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/riscv"
)

// This file pins fused whole-schedule compilation to exhaustive
// evaluation over the real Figure 5 machines, at the scale the
// optimization targets: randomized sets of 100+ armed breakpoints. The
// fused path is the default, so runStopsWith with no configuration
// exercises it; SetExhaustiveEval(true) gives the ground truth.

// chooseManyBreakpoints keeps drawing randomized choices until the
// armed set would reach the target count (each choice can arm several
// statements and instances).
func chooseManyBreakpoints(t *testing.T, m *riscv.Machine, rnd func() uint64, target int) []bpChoice {
	t.Helper()
	var choices []bpChoice
	armed := map[int64]bool{}
	for tries := 0; len(armed) < target && tries < 64; tries++ {
		for _, c := range chooseBreakpoints(m, rnd, 16) {
			choices = append(choices, c)
			for _, bp := range m.Table.BreakpointsAt(c.file, c.line) {
				if c.instance == "" || bp.InstanceName == c.instance {
					armed[bp.ID] = true
				}
			}
		}
	}
	if len(armed) < target {
		t.Skipf("symbol table too small: only %d distinct breakpoints reachable", len(armed))
	}
	return choices
}

// TestFusedStopEquivalenceRISCV is the tentpole acceptance
// differential: with 100+ randomized armed breakpoints on the RISC-V
// workloads, the fused whole-schedule path produces the identical stop
// sequence — times, locations, hit instances, frame values — as
// exhaustive per-edge evaluation.
func TestFusedStopEquivalenceRISCV(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload runs")
	}
	byName := workloadsByName()
	for _, tc := range []struct {
		workload string
		seed     uint64
	}{
		{"towers", 0x9E3779B97F4A7C15},
		{"vvadd", 0xBF58476D1CE4E5B9},
		{"mt-idle", 0x94D049BB133111EB},
	} {
		ws := byName[tc.workload]
		if len(ws) == 0 {
			t.Fatalf("workload %s missing", tc.workload)
		}
		w := ws[0]
		t.Run(tc.workload, func(t *testing.T) {
			probe, err := riscv.NewMachine(map[bool]int{true: 2, false: 1}[w.MT], false)
			if err != nil {
				t.Fatal(err)
			}
			rnd := xorshift(tc.seed)
			choices := chooseManyBreakpoints(t, probe, rnd, 100)
			exhaustive, _ := runStops(t, w, choices, true)
			fused, rt := runStopsWith(t, w, choices, func(*core.Runtime) {})
			if n := len(rt.ListBreakpoints()); n < 100 {
				t.Fatalf("only %d breakpoints armed, want 100+", n)
			}
			if len(fused) != len(exhaustive) {
				t.Fatalf("stop counts differ: fused=%d exhaustive=%d", len(fused), len(exhaustive))
			}
			for i := range fused {
				if fused[i] != exhaustive[i] {
					t.Fatalf("stop %d differs:\nfused:      %s\nexhaustive: %s", i, fused[i], exhaustive[i])
				}
			}
			if rt.FusedRuns() == 0 {
				t.Fatal("fused whole-schedule program never executed")
			}
			stats, ok := rt.FuseInfo()
			if !ok {
				t.Fatal("no fused schedule was built")
			}
			t.Logf("%s: %d stops over %d armed; fused %s", tc.workload, len(fused),
				len(rt.ListBreakpoints()), fmt.Sprintf("%+v", stats))
		})
	}
}
