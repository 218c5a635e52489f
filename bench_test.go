// Package repro_test is the benchmark harness regenerating every
// quantitative artifact in the paper's evaluation (see DESIGN.md's
// experiment index):
//
//   - BenchmarkFig5: simulation time per workload per configuration
//     (Figure 5's bars; compare ns/op across /baseline, /hgdb, /debug,
//     /debug-hgdb sub-benchmarks).
//   - BenchmarkFig5Activity: the activity-driven scheduling extension —
//     per-edge debugger cost with armed breakpoints on low-activity
//     scenarios (a clock-gated idle core, sparse bursty traffic),
//     delta-scheduled vs exhaustive re-evaluation.
//   - BenchmarkCallbackOverhead: the §4.3 mechanism — cost of the
//     clock-edge callback with no breakpoints inserted.
//   - BenchmarkSymtabSize: the §4.1 statistic (reported as custom
//     metrics: rows and netlist signals, optimized vs debug).
//   - BenchmarkSSA / BenchmarkCompile: compilation-pipeline ablations.
//   - BenchmarkEdgeVsChange: the §3 design choice of evaluating
//     breakpoints only at clock edges rather than on every change.
//   - BenchmarkParallelEval: §3.2's parallel group evaluation.
//
// Run: go test -bench=. -benchmem .
package repro_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/generator"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/replay"
	"repro/internal/riscv"
	"repro/internal/rtl"
	"repro/internal/sim"
	"repro/internal/symtab"
	"repro/internal/vcd"
	"repro/internal/vpi"
)

// fig5Configs mirrors the paper's four bars per workload.
var fig5Configs = []struct {
	name string
	cfg  bench.Config
}{
	{"baseline", bench.Baseline},
	{"hgdb", bench.BaselineHgdb},
	{"debug", bench.Debug},
	{"debug-hgdb", bench.DebugHgdb},
}

// BenchmarkFig5 regenerates Figure 5. The per-iteration work is one
// full validated execution of the workload (machine construction
// excluded from timing via the harness measuring only the run).
func BenchmarkFig5(b *testing.B) {
	for _, w := range riscv.Workloads() {
		w := w
		for _, c := range fig5Configs {
			c := c
			b.Run(w.Name+"/"+c.name, func(b *testing.B) {
				var cycles uint64
				for i := 0; i < b.N; i++ {
					secs, res, err := bench.RunWorkload(w, c.cfg, 1)
					if err != nil {
						b.Fatal(err)
					}
					cycles = res.Cycles
					_ = secs
				}
				b.ReportMetric(float64(cycles), "cycles")
			})
		}
	}
}

// BenchmarkFig5Activity measures the per-edge debugger cost that
// activity-driven scheduling removes, on the two low-activity Figure 5
// scenarios:
//
//   - idle-core: a two-core SoC where hart 1 halts immediately (its
//     registers are clock-gated from then on) while hart 0 spins
//     forever; breakpoints are armed on the idle core only. With
//     delta scheduling their per-edge cost collapses to the dirty-set
//     poll; exhaustive evaluation re-runs every condition each edge.
//   - bursty: a counter whose enable pulses one cycle in 64, with an
//     armed never-true condition — sparse bursty traffic where almost
//     every edge leaves the dependency set untouched.
//
// Compare ns/op and the evals/edge metric across /delta vs
// /exhaustive within a scenario; stop sequences are pinned equal by
// TestDeltaStopEquivalenceRISCV in internal/bench.
func BenchmarkFig5Activity(b *testing.B) {
	schedModes := []struct {
		name       string
		exhaustive bool
	}{{"delta", false}, {"exhaustive", true}}

	b.Run("idle-core", func(b *testing.B) {
		// hart 1 parks immediately; hart 0 keeps toggling registers so
		// the design as a whole stays active.
		prog := riscv.MustAssemble(`
.text
    li sp, 0x20000
    csrrs t0, 0xF14, x0
    bnez t0, park
busy:
    addi t1, t1, 1
    addi t2, t2, 2
    j busy
park:
    ecall
`)
		for _, mode := range schedModes {
			mode := mode
			b.Run(mode.name, func(b *testing.B) {
				m, err := riscv.NewMachine(2, false)
				if err != nil {
					b.Fatal(err)
				}
				rt, err := core.New(vpi.NewSimBackend(m.Sim), m.Table)
				if err != nil {
					b.Fatal(err)
				}
				rt.SetExhaustiveEval(mode.exhaustive)
				rt.SetHandler(func(*core.StopEvent) core.Command { return core.CmdContinue })
				// Arm every conditional statement of the idle core.
				armed := 0
				for _, f := range m.Table.Files() {
					for _, l := range m.Table.Lines(f) {
						for _, bp := range m.Table.BreakpointsAt(f, l) {
							if bp.InstanceName == "SoC.core1" && bp.Enable != "" {
								if _, err := rt.AddBreakpointInstance(f, l, "SoC.core1", "pc == 0xfffc"); err == nil {
									armed++
								}
								break
							}
						}
					}
				}
				if armed == 0 {
					b.Fatal("no breakpoint armed on the idle core")
				}
				for i := range m.Cores {
					if err := m.Load(i, prog); err != nil {
						b.Fatal(err)
					}
				}
				if err := m.Reset(); err != nil {
					b.Fatal(err)
				}
				m.Sim.Run(50) // hart 1 reaches its ecall and gates off
				// Steady-state metrics only: snapshot the counters so
				// warmup evaluations don't pollute evals/edge.
				evals0, _ := rt.Stats()
				skipped0, evaluated0, _ := rt.ActivityStats()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Sim.Step()
				}
				b.StopTimer()
				evals, _ := rt.Stats()
				skipped, evaluated, _ := rt.ActivityStats()
				b.ReportMetric(float64(evals-evals0)/float64(b.N), "evals/edge")
				b.ReportMetric(float64(skipped-skipped0), "groups-skipped")
				b.ReportMetric(float64(evaluated-evaluated0), "groups-evaluated")
			})
		}
	})

	b.Run("bursty", func(b *testing.B) {
		for _, mode := range schedModes {
			mode := mode
			b.Run(mode.name, func(b *testing.B) {
				s, table := buildCounterBench(b, false)
				rt, err := core.New(vpi.NewSimBackend(s), table)
				if err != nil {
					b.Fatal(err)
				}
				rt.SetExhaustiveEval(mode.exhaustive)
				rt.SetHandler(func(*core.StopEvent) core.Command { return core.CmdContinue })
				files := table.Files()
				lines := table.Lines(files[0])
				if _, err := rt.AddBreakpoint(files[0], lines[0], "count == 70000"); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// One enabled cycle in 64: sparse bursts.
					if i%64 == 0 {
						s.Poke("Counter.en", 1)
					} else if i%64 == 1 {
						s.Poke("Counter.en", 0)
					}
					s.Step()
				}
				b.StopTimer()
				evals, _ := rt.Stats()
				skipped, _, _ := rt.ActivityStats()
				b.ReportMetric(float64(evals)/float64(b.N), "evals/edge")
				b.ReportMetric(float64(skipped), "groups-skipped")
			})
		}
	})
}

// BenchmarkFig5Fused measures the armed-breakpoint per-edge cost that
// whole-schedule fused compilation removes, at the scale the paper's
// Figure 5 debug bars pay it: a many-instance design with 128 armed
// conditional breakpoints (16 instances × 8 conditional statements)
// whose dependencies change every edge, so activity skipping never
// parks anything and the full armed set is evaluated each cycle.
//
// Compare ns/op across /fused (one fused program per edge) and
// /exhaustive (no delta, no fusion: one compiled program per condition
// per group). Stop sequences are pinned bit-identical by
// TestFusedStopEquivalenceRISCV and the internal/core fused
// differentials; this benchmark only reports cost. The fused shape
// (conditions, CSE segments, shared reads, deduplicated operands) is
// reported as metrics on the /fused run.
func BenchmarkFig5Fused(b *testing.B) {
	for _, mode := range []struct {
		name      string
		configure func(*core.Runtime)
	}{
		{"fused", func(*core.Runtime) {}},
		{"exhaustive", func(rt *core.Runtime) { rt.SetExhaustiveEval(true) }},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			s, rt := buildFig5FusedBench(b)
			mode.configure(rt)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A fresh input every edge keeps every condition's
				// dependency set dirty: no park, full armed cost.
				s.Poke("Top.x", uint64(i%255)+1)
				s.Step()
			}
			b.StopTimer()
			evals, _ := rt.Stats()
			b.ReportMetric(float64(evals)/float64(b.N), "evals/edge")
			if stats, ok := rt.FuseInfo(); ok && mode.name == "fused" {
				b.ReportMetric(float64(stats.Conds), "fused-conds")
				b.ReportMetric(float64(stats.SharedSegs), "cse-segs")
				b.ReportMetric(float64(stats.SharedReads), "cse-reads")
				b.ReportMetric(float64(stats.Operands), "operands")
			}
		})
	}
}

// buildFig5FusedBench builds the BenchmarkFig5Fused workload: the
// 16-instance design with 128 armed never-true conditional
// breakpoints. Shared with TestFig5FusedRef, the CI cost gate.
func buildFig5FusedBench(tb testing.TB) (*sim.Simulator, *core.Runtime) {
	const nInst = 16
	const nStmts = 8
	c := generator.NewCircuit("Top")
	child := c.NewModule("Leaf")
	d := child.Input("d", ir.UIntType(8))
	q := child.Output("q", ir.UIntType(8))
	acc := child.RegInit("acc", ir.UIntType(8), child.Lit(0, 8))
	// Nested conditionals: statement j's SSA enable is the chain
	// d[0] && … && d[j], so the instance's 8 enables share nested
	// prefixes — the cross-condition structure the fuser's CSE
	// hoists into the shared prelude.
	var nest func(j int)
	nest = func(j int) {
		if j >= nStmts {
			return
		}
		child.When(d.Bit(j), func() {
			acc.Set(acc.AddMod(child.Lit(uint64(j+1), 8)))
			nest(j + 1)
		})
	}
	nest(0)
	q.Set(acc)
	top := c.NewModule("Top")
	x := top.Input("x", ir.UIntType(8))
	y := top.Output("y", ir.UIntType(8))
	sum := top.Wire("s", ir.UIntType(8))
	sum.Set(top.Lit(0, 8))
	for i := 0; i < nInst; i++ {
		u := top.Instance("u"+string(rune('a'+i)), child)
		u.IO("d").Set(x)
		sum.Set(sum.AddMod(u.IO("q")))
	}
	y.Set(sum)
	comp, err := passes.Compile(c.MustBuild(), false)
	if err != nil {
		tb.Fatal(err)
	}
	table, err := symtab.Build(comp)
	if err != nil {
		tb.Fatal(err)
	}
	nl, err := rtl.Elaborate(comp.Circuit)
	if err != nil {
		tb.Fatal(err)
	}
	s := sim.New(nl)
	rt, err := core.New(vpi.NewSimBackend(s), table)
	if err != nil {
		tb.Fatal(err)
	}
	// Arm every conditional Leaf statement across all instances, each
	// with a never-true user condition sharing structure with its
	// siblings (same source per statement across the 16 instances, a
	// common "acc"-over-the-same-slot shape within each instance).
	armed := 0
	stmt := 0
	for _, f := range table.Files() {
		for _, l := range table.Lines(f) {
			bps := table.BreakpointsAt(f, l)
			if len(bps) == 0 || bps[0].Enable == "" {
				continue
			}
			// The first clause is identical across the instance's 8
			// statements and reads the same acc slot, so the fuser
			// hoists it once per instance; the second clause keeps
			// each condition distinct. mod-13 can never equal 77, so
			// no stop fires and the runs measure pure armed cost.
			cond := fmt.Sprintf("acc %% 13 == 77 && acc[3:0] != %d", stmt)
			ids, err := rt.AddBreakpoint(f, l, cond)
			if err != nil {
				tb.Fatal(err)
			}
			armed += len(ids)
			stmt++
		}
	}
	if armed < 100 {
		tb.Fatalf("armed %d breakpoints, want 100+", armed)
	}
	rt.SetHandler(func(*core.StopEvent) core.Command { return core.CmdContinue })
	return s, rt
}

// buildCounterNetlist makes a small design for microbenchmarks.
func buildCounterBench(b *testing.B, debug bool) (*sim.Simulator, *symtab.Table) {
	b.Helper()
	c := generator.NewCircuit("Counter")
	m := c.NewModule("Counter")
	en := m.Input("en", ir.UIntType(1))
	out := m.Output("out", ir.UIntType(16))
	count := m.RegInit("count", ir.UIntType(16), m.Lit(0, 16))
	m.When(en, func() {
		count.Set(count.AddMod(m.Lit(1, 16)))
	})
	out.Set(count)
	comp, err := passes.Compile(c.MustBuild(), debug)
	if err != nil {
		b.Fatal(err)
	}
	table, err := symtab.Build(comp)
	if err != nil {
		b.Fatal(err)
	}
	nl, err := rtl.Elaborate(comp.Circuit)
	if err != nil {
		b.Fatal(err)
	}
	return sim.New(nl), table
}

// BenchmarkCallbackOverhead isolates the §4.3 claim's mechanism: the
// per-cycle cost of hgdb's clock callback when no breakpoint is
// inserted, versus no callback at all, versus an armed breakpoint whose
// condition never fires.
func BenchmarkCallbackOverhead(b *testing.B) {
	b.Run("no-hgdb", func(b *testing.B) {
		s, _ := buildCounterBench(b, false)
		s.Poke("Counter.en", 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
	})
	b.Run("hgdb-attached", func(b *testing.B) {
		s, table := buildCounterBench(b, false)
		rt, err := core.New(vpi.NewSimBackend(s), table)
		if err != nil {
			b.Fatal(err)
		}
		rt.SetHandler(func(*core.StopEvent) core.Command { return core.CmdContinue })
		s.Poke("Counter.en", 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
	})
	b.Run("armed-never-hit", func(b *testing.B) {
		s, table := buildCounterBench(b, false)
		rt, err := core.New(vpi.NewSimBackend(s), table)
		if err != nil {
			b.Fatal(err)
		}
		rt.SetHandler(func(*core.StopEvent) core.Command { return core.CmdContinue })
		files := table.Files()
		if len(files) == 0 {
			b.Fatal("no files")
		}
		lines := table.Lines(files[0])
		// Condition is never true: evaluated every matching cycle, no
		// stop.
		if _, err := rt.AddBreakpoint(files[0], lines[0], "count == 70000"); err != nil {
			b.Fatal(err)
		}
		s.Poke("Counter.en", 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
	})
}

// BenchmarkCompiledEval measures one clock edge's worth of condition
// evaluation for a 100-breakpoint workload, comparing the seed's
// tree-walk path (one GetValue per signal reference per breakpoint,
// AST interpretation) against the compiled pipeline (one batched read
// of the deduplicated dependency union, then zero-alloc register
// program execution). This is the mechanism behind the scheduler's
// per-edge refactor; the compiled form must be at least 2x faster.
func BenchmarkCompiledEval(b *testing.B) {
	const nBPs = 100
	setup := func(b *testing.B) (vpi.Interface, []expr.Node, []*expr.Program) {
		s, _ := buildCounterBench(b, false)
		s.Poke("Counter.en", 1)
		s.Run(3)
		nodes := make([]expr.Node, nBPs)
		progs := make([]*expr.Program, nBPs)
		for i := 0; i < nBPs; i++ {
			src := fmt.Sprintf("(count + %d) %% 7 == %d && count[3:0] != %d || out >= %d",
				i, i%7, i%16, i%8)
			n, err := expr.Parse(src)
			if err != nil {
				b.Fatal(err)
			}
			p, err := expr.Compile(n)
			if err != nil {
				b.Fatal(err)
			}
			nodes[i], progs[i] = n, p
		}
		return vpi.NewSimBackend(s), nodes, progs
	}
	toPath := func(name string) string { return "Counter." + name }

	b.Run("tree-walk", func(b *testing.B) {
		backend, nodes, _ := setup(b)
		resolver := expr.ResolverFunc(func(name string) (eval.Value, error) {
			return backend.GetValue(toPath(name))
		})
		hits := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, n := range nodes {
				v, err := n.Eval(resolver)
				if err != nil {
					b.Fatal(err)
				}
				if v.IsTrue() {
					hits++
				}
			}
		}
		if hits == 0 {
			b.Fatal("no condition ever hit")
		}
	})
	b.Run("compiled", func(b *testing.B) {
		backend, _, progs := setup(b)
		// Mirror the core scheduler: deduplicated union of every
		// program's dependencies, prefetched once per edge; each program
		// gathers operands by precomputed slot.
		slotOf := map[string]int{}
		var union []string
		slots := make([][]int, len(progs))
		for k, p := range progs {
			slots[k] = make([]int, len(p.Deps))
			for i, d := range p.Deps {
				path := toPath(d)
				s, ok := slotOf[path]
				if !ok {
					s = len(union)
					slotOf[path] = s
					union = append(union, path)
				}
				slots[k][i] = s
			}
		}
		var m eval.Machine
		opbuf := make([]eval.Value, 8)
		vals := make([]eval.Value, len(union))
		hits := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := vpi.ReadBatchInto(backend, union, vals); err != nil {
				b.Fatal(err)
			}
			for k, p := range progs {
				ops := opbuf[:len(p.Deps)]
				for j, s := range slots[k] {
					ops[j] = vals[s]
				}
				v, err := p.Exec(&m, ops)
				if err != nil {
					b.Fatal(err)
				}
				if v.IsTrue() {
					hits++
				}
			}
		}
		if hits == 0 {
			b.Fatal("no condition ever hit")
		}
	})
}

// BenchmarkSymtabSize reports the §4.1 statistic as metrics.
func BenchmarkSymtabSize(b *testing.B) {
	b.Run("soc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			opt, err := riscv.NewMachine(1, false)
			if err != nil {
				b.Fatal(err)
			}
			dbg, err := riscv.NewMachine(1, true)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(opt.Table.TotalRows()), "rows-opt")
			b.ReportMetric(float64(dbg.Table.TotalRows()), "rows-debug")
			b.ReportMetric(float64(opt.Sim.Netlist().NumSignals()), "signals-opt")
			b.ReportMetric(float64(dbg.Sim.Netlist().NumSignals()), "signals-debug")
		}
	})
}

// BenchmarkCompile measures the full pipeline (Algorithm 1 included) on
// the SoC, optimized vs debug.
func BenchmarkCompile(b *testing.B) {
	for _, mode := range []struct {
		name  string
		debug bool
	}{{"optimized", false}, {"debug", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				circ, err := riscv.BuildSoC(1, "RV32Core", "SoC")
				if err != nil {
					b.Fatal(err)
				}
				if _, err := passes.Compile(circ, mode.debug); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSSA isolates the Listing 1 → Listing 2 transform on a
// synthetic module with many conditional assignments.
func BenchmarkSSA(b *testing.B) {
	build := func() *ir.Circuit {
		c := generator.NewCircuit("S")
		m := c.NewModule("S")
		data := m.Input("data", ir.UIntType(64))
		out := m.Output("out", ir.UIntType(8))
		sum := m.Wire("sum", ir.UIntType(8))
		sum.Set(m.Lit(0, 8))
		for i := 0; i < 64; i++ {
			i := i
			m.When(data.Bit(i), func() {
				sum.Set(sum.AddMod(m.Lit(uint64(i), 8)))
			})
		}
		out.Set(sum)
		return c.MustBuild()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comp := passes.NewCompilation(build(), false)
		for _, p := range []passes.Pass{
			&passes.LowerAggregates{}, &passes.Annotate{}, &passes.SSA{},
		} {
			if err := p.Run(comp); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEdgeVsChange quantifies the §3 design decision: checking
// breakpoints once per clock edge versus on every signal value change
// (what a naive value-callback implementation would do). The per-change
// variant pays the change-tracking snapshot plus one check per changed
// signal per cycle.
func BenchmarkEdgeVsChange(b *testing.B) {
	checkCost := func(s *sim.Simulator) func() {
		return func() {
			// Stand-in for one breakpoint evaluation.
			s.Peek("Counter.count")
		}
	}
	b.Run("per-edge", func(b *testing.B) {
		s, _ := buildCounterBench(b, false)
		check := checkCost(s)
		s.OnClockEdge(func(uint64) { check() })
		s.Poke("Counter.en", 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
	})
	b.Run("per-change", func(b *testing.B) {
		s, _ := buildCounterBench(b, false)
		check := checkCost(s)
		s.OnChange(func(*rtl.Signal, eval.Value) { check() })
		s.Poke("Counter.en", 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
	})
}

// --- Trace index & checkpointed replay (§3.3 replay backend) ---
//
// The workload for the three benchmarks below is a real generated
// RISC-V trace: the full optimized SoC running the vvadd kernel with
// every signal recorded. The benchmarks compare the seed trace path
// (vcd.Parse eager timelines + binary-search replay) against the
// streaming block store (vcd.ParseStore + checkpointed replay.Engine)
// on three axes: parse memory, value-at-time latency, and reverse-step
// latency. DESIGN.md "Trace index & checkpointing" records reference
// numbers.

var (
	replayTraceOnce sync.Once
	replayTraceData []byte
	replayTraceErr  error
)

// riscvTraceVCD records the vvadd workload on the one-core optimized
// SoC once per process and returns the VCD text.
func riscvTraceVCD(b *testing.B) []byte {
	b.Helper()
	replayTraceOnce.Do(func() {
		m, err := riscv.NewMachine(1, false)
		if err != nil {
			replayTraceErr = err
			return
		}
		w, err := vvaddWorkload()
		if err != nil {
			replayTraceErr = err
			return
		}
		var buf bytes.Buffer
		rec := vcd.NewRecorder(m.Sim, &buf)
		if _, err := m.RunProgram(w.Prog, w.MaxCycles); err != nil {
			replayTraceErr = err
			return
		}
		if err := rec.Flush(); err != nil {
			replayTraceErr = err
			return
		}
		replayTraceData = buf.Bytes()
	})
	if replayTraceErr != nil {
		b.Fatal(replayTraceErr)
	}
	return replayTraceData
}

// BenchmarkTraceParse measures parsing the RISC-V trace into a block
// store. Allocation volume (B/op with -benchmem) is the peak-memory
// figure; the retained change-data footprint — varint blocks plus the
// sparse per-signal block index — is reported as the data-bytes metric.
func BenchmarkTraceParse(b *testing.B) {
	data := riscvTraceVCD(b)
	b.Run("store", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			st, err := vcd.ParseStore(bytes.NewReader(data), vcd.StoreOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(float64(st.IndexBytes()), "data-bytes")
				b.ReportMetric(float64(st.NumChanges()), "changes")
			}
		}
	})
}

// BenchmarkStoreOpen pins the disk-backed store's reason to exist:
// opening a pre-indexed trace reads the header and metadata sections
// only — no VCD text scan, no block decode — so open latency and
// resident memory are compared directly against ParseStore rebuilding
// the same index from text. The resident-bytes metric is the retained
// change-data footprint right after open (for the disk store: block
// directory plus an empty cache; blocks stay on disk until queried).
// DESIGN.md records reference numbers; the acceptance bar is >=10x
// faster open with lower resident memory.
func BenchmarkStoreOpen(b *testing.B) {
	data := riscvTraceVCD(b)
	dir := b.TempDir()
	vcdPath := filepath.Join(dir, "trace.vcd")
	storePath := filepath.Join(dir, "trace.hgdbstore")
	if err := os.WriteFile(vcdPath, data, 0o644); err != nil {
		b.Fatal(err)
	}
	stats, err := vcd.IndexFile(vcdPath, storePath, vcd.StoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("parse-vcd", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			st, err := vcd.ParseStore(bytes.NewReader(data), vcd.StoreOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(float64(st.IndexBytes()), "resident-bytes")
			}
		}
	})
	b.Run("open-store", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(stats.Bytes)
		for i := 0; i < b.N; i++ {
			st, err := vcd.OpenStoreFile(storePath, vcd.OpenOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(float64(st.IndexBytes()), "resident-bytes")
			}
			st.Close()
		}
	})
	// Guard against benchmarking a broken open: the opened store must
	// answer a probe query identically to the parsed one.
	mem, err := vcd.ParseStore(bytes.NewReader(data), vcd.StoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	disk, err := vcd.OpenStoreFile(storePath, vcd.OpenOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer disk.Close()
	for _, name := range traceQuerySet(mem.SignalNames()) {
		ms, _ := mem.Signal(name)
		ds, ok := disk.Signal(name)
		if !ok {
			b.Fatalf("opened store missing %s", name)
		}
		for _, tm := range []uint64{0, mem.MaxTime / 2, mem.MaxTime} {
			if got, want := ds.ValueAt(tm), ms.ValueAt(tm); got != want {
				b.Fatalf("%s@%d: disk %d, mem %d", name, tm, got, want)
			}
		}
	}
}

// traceQuerySet picks a deterministic spread of signals for value
// queries: every 7th signal name, which mixes hot (clock, pc) and cold
// scopes.
func traceQuerySet(names []string) []string {
	var out []string
	for i := 0; i < len(names); i += 7 {
		out = append(out, names[i])
	}
	return out
}

// BenchmarkTraceValueAt measures random-access value-at-time queries:
// the store's lazy path (sparse block index + one block decode), and
// the store after materializing the query set (binary search over the
// decoded timelines).
func BenchmarkTraceValueAt(b *testing.B) {
	data := riscvTraceVCD(b)
	st, err := vcd.ParseStore(bytes.NewReader(data), vcd.StoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	names := traceQuerySet(st.SignalNames())
	maxT := st.MaxTime
	// xorshift keeps query times deterministic without pulling in rand.
	next := uint64(0x9E3779B97F4A7C15)
	rnd := func() uint64 {
		next ^= next << 13
		next ^= next >> 7
		next ^= next << 17
		return next
	}
	b.Run("store-lazy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ts, _ := st.Signal(names[i%len(names)])
			ts.ValueAt(rnd() % (maxT + 1))
		}
	})
	b.Run("store-materialized", func(b *testing.B) {
		st.Materialize(names...)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ts, _ := st.Signal(names[i%len(names)])
			ts.ValueAt(rnd() % (maxT + 1))
		}
	})
}

// BenchmarkReplayReverseStep measures sequential reverse stepping — the
// debugger's reverse-execution inner loop — at increasing trace depths:
// each op is one StepBackward plus a full-state signal read. The store
// engine's checkpointed restore averages O(checkpoint interval / 2)
// records per step regardless of depth; the same engine with
// checkpoints disabled replays from t=0 every step (O(t)). Compare
// /t25 vs /t50 vs /t100 (percent of trace depth) within each
// configuration: checkpointed stays flat, no-checkpoint scales
// linearly.
func BenchmarkReplayReverseStep(b *testing.B) {
	data := riscvTraceVCD(b)
	// A mid-hierarchy register that is not in any dependency union, so
	// reading it exercises full-state reconstruction on the store.
	const probe = "SoC.core0.pc"
	depths := []struct {
		name string
		frac uint64 // rewind depth t = MaxTime / frac
	}{{"t25", 4}, {"t50", 2}, {"t100", 1}}
	engines := []struct {
		name string
		make func(b *testing.B) *replay.Engine
	}{
		{"checkpointed", func(b *testing.B) *replay.Engine {
			st, err := vcd.ParseStore(bytes.NewReader(data), vcd.StoreOptions{})
			if err != nil {
				b.Fatal(err)
			}
			return replay.NewStore(st)
		}},
		{"no-checkpoint", func(b *testing.B) *replay.Engine {
			st, err := vcd.ParseStore(bytes.NewReader(data), vcd.StoreOptions{})
			if err != nil {
				b.Fatal(err)
			}
			// An interval beyond the trace end means every backward
			// seek restores the time-0 state and replays forward — the
			// un-checkpointed block-store baseline.
			return replay.NewStore(st, replay.WithCheckpointInterval(st.MaxTime+1))
		}},
	}
	for _, eng := range engines {
		for _, d := range depths {
			b.Run(eng.name+"/"+d.name, func(b *testing.B) {
				e := eng.make(b)
				tm := e.MaxTime() / d.frac
				if tm == 0 {
					b.Skip("trace too short")
				}
				// Warm: a forward read at depth populates checkpoints.
				e.SetTime(tm)
				if _, err := e.GetValue(probe); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if e.Time() == 0 {
						e.SetTime(tm)
					}
					e.StepBackward()
					if _, err := e.GetValue(probe); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkReplayContinue measures a continue over the recorded vvadd
// trace: one replayed clock edge per op with 48 conditional breakpoints
// armed on the core that never fire, so each edge is the change poll
// (the edge's one record walk, which also syncs the replay state), the
// dirty-slot reads and the fused evaluation. Steady state allocates
// nothing. Wrapping back to the trace start is untimed.
func BenchmarkReplayContinue(b *testing.B) {
	st, err := vcd.ParseStore(bytes.NewReader(riscvTraceVCD(b)), vcd.StoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	m, err := riscv.NewMachine(1, false)
	if err != nil {
		b.Fatal(err)
	}
	eng := replay.NewStore(st)
	rt, err := core.New(eng, m.Table)
	if err != nil {
		b.Fatal(err)
	}
	// Every other distinct statement of the core, each comparing a mix
	// of busy (pc, cycle_r) and mostly idle core signals against a
	// constant the kernel never produces.
	deps := []string{"pc", "instr", "rv1", "rv2", "rd", "rs1", "funct3", "immI", "retired_r", "cycle_r"}
	type stmt struct {
		file string
		line int
	}
	seen := map[stmt]bool{}
	armed, n := 0, 0
	for _, bp := range m.Table.AllBreakpoints() {
		if bp.InstanceName != m.Table.Top()+".core0" || seen[stmt{bp.Filename, bp.Line}] {
			continue
		}
		seen[stmt{bp.Filename, bp.Line}] = true
		if n++; n%2 != 0 || armed >= 48 {
			continue
		}
		a, c := deps[armed%len(deps)], deps[(2*armed+1)%len(deps)]
		cond := fmt.Sprintf("%s + %s == %d", a, c, 0x7F000000+armed)
		ids, err := rt.AddBreakpointInstance(bp.Filename, bp.Line, bp.InstanceName, cond)
		if err != nil {
			b.Fatal(err)
		}
		armed += len(ids)
	}
	if armed < 40 {
		b.Fatalf("armed %d breakpoints, want ~48", armed)
	}
	rt.SetHandler(func(ev *core.StopEvent) core.Command {
		b.Fatalf("never-firing breakpoint stopped at t=%d", ev.Time)
		return core.CmdDetach
	})
	edge := func() {
		if !eng.StepForward() {
			b.StopTimer()
			eng.SetTime(0)
			b.StartTimer()
			eng.StepForward()
		}
	}
	for range 2000 { // warm: checkpoints, fused schedule, frame plans
		edge()
	}
	evals0, _ := rt.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		edge()
	}
	b.StopTimer()
	evals, _ := rt.Stats()
	b.ReportMetric(float64(evals-evals0)/float64(b.N), "evals/edge")
}

// BenchmarkStopFrame measures one stepped stop on the one-core SoC
// running vvadd: the step scheduling, every enabled statement's
// evaluation and the stop frame's construction (plan lookup plus one
// backend read per frame variable). /live steps the simulator, /replay
// the recorded trace of the same run. Frame plans are warmed before
// the timer starts, so allocs/op is the steady-state cost per stop.
func BenchmarkStopFrame(b *testing.B) {
	b.Run("live", func(b *testing.B) {
		m, err := riscv.NewMachine(1, false)
		if err != nil {
			b.Fatal(err)
		}
		w, err := vvaddWorkload()
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Load(0, w.Prog); err != nil {
			b.Fatal(err)
		}
		if err := m.Reset(); err != nil {
			b.Fatal(err)
		}
		rt, err := core.New(vpi.NewSimBackend(m.Sim), m.Table)
		if err != nil {
			b.Fatal(err)
		}
		benchSteppedStops(b, rt, func() bool { m.Sim.Step(); return true })
	})
	b.Run("replay", func(b *testing.B) {
		st, err := vcd.ParseStore(bytes.NewReader(riscvTraceVCD(b)), vcd.StoreOptions{})
		if err != nil {
			b.Fatal(err)
		}
		m, err := riscv.NewMachine(1, false)
		if err != nil {
			b.Fatal(err)
		}
		eng := replay.NewStore(st)
		rt, err := core.New(eng, m.Table)
		if err != nil {
			b.Fatal(err)
		}
		benchSteppedStops(b, rt, eng.StepForward)
	})
}

// benchSteppedStops times b.N consecutive step stops, advancing the
// clock with advance (false = no more cycles).
func benchSteppedStops(b *testing.B, rt *core.Runtime, advance func() bool) {
	stops, want := 0, 0
	rt.SetHandler(func(*core.StopEvent) core.Command {
		if stops++; stops >= want {
			return core.CmdContinue
		}
		return core.CmdStep
	})
	walk := func(n int) {
		stops, want = 0, n
		rt.InterruptNext()
		for stops < n && advance() {
		}
		if stops < n {
			b.Fatalf("ran out of cycles after %d of %d stops", stops, n)
		}
	}
	walk(500) // build the plans of the breakpoints the walk reaches
	b.ReportAllocs()
	b.ResetTimer()
	walk(b.N)
}

// vvaddWorkload returns the vvadd Fig 5 workload.
func vvaddWorkload() (*riscv.Workload, error) {
	for _, w := range riscv.Workloads() {
		if w.Name == "vvadd" {
			return w, nil
		}
	}
	return nil, fmt.Errorf("vvadd workload not found")
}

// BenchmarkParallelEval measures the §3.2 parallel group evaluation,
// emulated in order on the simulation goroutine, on a many-instance
// design where every instance hits the same line.
func BenchmarkParallelEval(b *testing.B) {
	buildMany := func(n int) (*sim.Simulator, *core.Runtime, string, int) {
		c := generator.NewCircuit("Top")
		child := c.NewModule("Leaf")
		d := child.Input("d", ir.UIntType(8))
		q := child.Output("q", ir.UIntType(8))
		acc := child.RegInit("acc", ir.UIntType(8), child.Lit(0, 8))
		child.When(d.Bit(0), func() {
			acc.Set(acc.AddMod(d))
		})
		q.Set(acc)
		top := c.NewModule("Top")
		x := top.Input("x", ir.UIntType(8))
		y := top.Output("y", ir.UIntType(8))
		sum := top.Wire("s", ir.UIntType(8))
		sum.Set(top.Lit(0, 8))
		for i := 0; i < n; i++ {
			u := top.Instance("u"+string(rune('a'+i)), child)
			u.IO("d").Set(x)
			sum.Set(sum.AddMod(u.IO("q")))
		}
		y.Set(sum)
		comp, err := passes.Compile(c.MustBuild(), false)
		if err != nil {
			b.Fatal(err)
		}
		table, err := symtab.Build(comp)
		if err != nil {
			b.Fatal(err)
		}
		nl, err := rtl.Elaborate(comp.Circuit)
		if err != nil {
			b.Fatal(err)
		}
		s := sim.New(nl)
		rt, err := core.New(vpi.NewSimBackend(s), table)
		if err != nil {
			b.Fatal(err)
		}
		// The accumulate line is the only conditional breakpoint in the
		// Leaf module's file list.
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
		return s, rt, file, line
	}
	for _, n := range []int{2, 8, 16} {
		n := n
		b.Run(string(rune('0'+n/10))+string(rune('0'+n%10))+"-instances", func(b *testing.B) {
			s, rt, file, line := buildMany(n)
			if _, err := rt.AddBreakpoint(file, line, ""); err != nil {
				b.Fatal(err)
			}
			stops := 0
			rt.SetHandler(func(ev *core.StopEvent) core.Command {
				stops += len(ev.Threads)
				return core.CmdContinue
			})
			s.Poke("Top.x", 3) // odd: every instance hits each cycle
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
			if stops == 0 {
				b.Fatal("no threads evaluated")
			}
		})
	}
}
