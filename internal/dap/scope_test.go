package dap

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/replay"
	"repro/internal/riscv"
	"repro/internal/server"
	"repro/internal/vcd"
	"repro/internal/vpi"
)

// This file is the evaluate differential: at every stop of a stepped
// walk, evaluating a frame variable by its source name — through the
// server with the thread's breakpoint id, and through DAP evaluate with
// the thread's frame — must answer exactly what the frame shows.

// loadSoC builds the one-core SoC with a single-core Fig 5 program
// loaded and reset.
func loadSoC(t *testing.T, debug bool) *riscv.Machine {
	t.Helper()
	m, err := riscv.NewMachine(1, debug)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(0, riscv.Workloads()[0].Prog); err != nil {
		t.Fatal(err)
	}
	if err := m.Reset(); err != nil {
		t.Fatal(err)
	}
	return m
}

// rewriteSignal edits the first signal in fulls whose width is at
// least minWidth: decl edits its $var fields and, when value is not
// nil, every vector value record of the signal (there must be one) is
// replaced by value's.
// It returns the edited trace and the signal chosen.
func rewriteSignal(t *testing.T, data []byte, fulls []string, minWidth int, decl func(f []string), value func(width int, id string) string) ([]byte, string) {
	t.Helper()
	lines := strings.Split(string(data), "\n")
	var scope []string
	type pick struct {
		line, width int
		id          string
	}
	found := map[string]pick{}
	for i, ln := range lines {
		f := strings.Fields(ln)
		switch {
		case len(f) >= 3 && f[0] == "$scope":
			scope = append(scope, f[2])
		case len(f) >= 1 && f[0] == "$upscope":
			scope = scope[:len(scope)-1]
		case len(f) >= 5 && f[0] == "$var":
			w, _ := strconv.Atoi(f[2])
			full := strings.Join(scope, ".") + "." + f[4]
			found[full] = pick{line: i, width: w, id: f[3]}
		}
	}
	for _, full := range fulls {
		p, ok := found[full]
		if !ok || p.width < minWidth {
			continue
		}
		var records []int
		for i, ln := range lines {
			if strings.HasPrefix(ln, "b") && strings.HasSuffix(ln, " "+p.id) {
				records = append(records, i)
			}
		}
		if value != nil && len(records) == 0 {
			continue // nothing recorded to rewrite
		}
		f := strings.Fields(lines[p.line])
		decl(f)
		lines[p.line] = strings.Join(f, " ")
		if value != nil {
			for _, i := range records {
				lines[i] = value(p.width, p.id)
			}
		}
		return []byte(strings.Join(lines, "\n")), full
	}
	t.Fatalf("no recorded signal of width >= %d among %v", minWidth, fulls)
	return nil, ""
}

// scopedCase is one backend of the evaluate differential: a server for
// the SoC, a driver that advances it, and the signals the replayed
// trace hides (frame shows Unknown) and holds at x.
type scopedCase struct {
	addr      string
	drive     func()
	hidden, x string
}

// startSoCServer serves the one-core SoC, live or replayed from a
// recorded trace in which one scope variable is missing and another is
// x throughout.
func startSoCServer(t *testing.T, debug, replayed bool, cycles int) scopedCase {
	t.Helper()
	m := loadSoC(t, debug)
	var backend vpi.Interface
	var sc scopedCase
	if !replayed {
		backend = vpi.NewSimBackend(m.Sim)
		sc.drive = func() { m.Sim.Run(cycles) }
	} else {
		var buf bytes.Buffer
		rec := vcd.NewRecorder(m.Sim, &buf)
		m.Sim.Run(cycles)
		if err := rec.Flush(); err != nil {
			t.Fatal(err)
		}
		var scopeVars []string
		for _, bp := range m.Table.AllBreakpoints() {
			for _, v := range m.Table.ScopeVars(bp.ID) {
				scopeVars = append(scopeVars, bp.InstanceName+"."+v.RTL)
			}
		}
		data, hidden := rewriteSignal(t, buf.Bytes(), scopeVars, 1, func(f []string) { f[4] += "__absent" }, nil)
		data, x := rewriteSignal(t, data, scopeVars[1:], 2, func([]string) {}, func(width int, id string) string {
			return "b" + strings.Repeat("x", width) + " " + id
		})
		st, err := vcd.ParseStore(bytes.NewReader(data), vcd.StoreOptions{BlockSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		eng := replay.NewStore(st, replay.WithCheckpointInterval(4))
		backend = eng
		sc.drive = func() {
			for eng.StepForward() {
			}
		}
		sc.hidden, sc.x = hidden, x
	}
	rt, err := core.New(backend, m.Table)
	if err != nil {
		t.Fatal(err)
	}
	if sc.hidden != "" {
		sc.hidden, sc.x = rt.Remap().ToSim(sc.hidden), rt.Remap().ToSim(sc.x)
	}
	srv := server.New(rt, nil)
	if sc.addr, err = srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return sc
}

// TestEvaluateMatchesFrame is the evaluate differential. It steps
// through every statement the one-core SoC runs in one cycle (about
// 70), in optimized and debug builds, live and replayed from a
// recorded trace. At every stop it evaluates every Local and
// Generator variable of every thread by source name, through the
// server with the thread's breakpoint id and through DAP evaluate with
// the thread's frame: each answer must equal the frame value, x planes
// included, and a variable the frame shows Unknown must fail to
// evaluate. A generator variable that a scope variable of the same
// name shadows is not reachable by that name at this stop; it is
// evaluated by its RTL path instead.
func TestEvaluateMatchesFrame(t *testing.T) {
	const from = 2 // the first cycle the recorded trace has values for
	for _, debug := range []bool{false, true} {
		for _, replayed := range []bool{false, true} {
			name := map[bool]string{false: "opt", true: "debug"}[debug] + map[bool]string{false: "/live", true: "/replay"}[replayed]
			t.Run(name, func(t *testing.T) {
				sc := startSoCServer(t, debug, replayed, 8)
				ctrl, err := client.Dial(sc.addr)
				if err != nil {
					t.Fatal(err)
				}
				defer ctrl.Close()
				if _, err := ctrl.WaitEvent("welcome", 5*time.Second); err != nil {
					t.Fatal(err)
				}
				// The DAP adapter attaches second, as an observer.
				d := newDAPSession(t, sc.addr)
				d.request("initialize", InitializeArguments{AdapterID: "hgdb", ClientID: "evaluate-differential"})
				d.request("attach", AttachArguments{})
				d.event("initialized")
				frames := map[string]int{}
				for _, th := range decodeBody[ThreadsResponse](t, d.request("threads", nil)).Threads {
					frames[th.Name] = th.ID
				}

				if err := ctrl.Command("pause"); err != nil {
					t.Fatal(err)
				}
				done := make(chan struct{})
				go func() { defer close(done); sc.drive() }()

				stops, answers, first := 0, 0, uint64(0)
				sawX, sawUnknown := false, false
				for {
					ev, err := ctrl.WaitStop(10 * time.Second)
					if err != nil {
						t.Fatalf("after %d stops: %v", stops, err)
					}
					if got := d.stopped(); got.Time != ev.Time {
						t.Fatalf("DAP stop at t=%d, server stop at t=%d", got.Time, ev.Time)
					}
					if ev.Time < from {
						// Before the trace's first dump nothing is recorded.
						if err := ctrl.Command("step"); err != nil {
							t.Fatal(err)
						}
						continue
					}
					if stops == 0 {
						first = ev.Time
					}
					if ev.Time > first {
						break // one whole cycle walked
					}
					stops++
					for _, th := range ev.Threads {
						local := map[string]bool{}
						for _, v := range th.Locals {
							local[v.Name] = true
						}
						check := func(v core.Variable, src string) {
							answers++
							sawX = sawX || v.HasX()
							sawUnknown = sawUnknown || v.Unknown
							where := fmt.Sprintf("t=%d %s:%d bp %d %s: %s", ev.Time, ev.File, ev.Line, th.BreakpointID, th.Instance, src)
							checkServerEval(t, ctrl, th, v, src, where)
							checkDAPEval(t, d, frames[th.Instance], v, src, where)
						}
						for _, v := range th.Locals {
							check(v, v.Name)
						}
						for _, v := range th.Generator {
							if local[v.Name] {
								check(v, v.RTL)
							} else {
								check(v, v.Name)
							}
						}
					}
					if t.Failed() {
						break
					}
					if err := ctrl.Command("step"); err != nil {
						t.Fatal(err)
					}
				}
				if err := ctrl.Command("detach"); err != nil {
					t.Fatal(err)
				}
				<-done
				t.Logf("%d stops at t=%d, %d variables evaluated twice", stops, first, answers)
				if !t.Failed() && stops < 60 {
					t.Fatalf("walk too short: %d stops", stops)
				}
				if replayed && (!sawX || !sawUnknown) {
					t.Fatalf("replayed walk never compared an x (%s: %v) and an Unknown (%s: %v) variable", sc.x, sawX, sc.hidden, sawUnknown)
				}
			})
		}
	}
}

// checkServerEval evaluates src through the server, scoped to the
// thread's breakpoint, and compares it with frame variable v.
func checkServerEval(t *testing.T, ctrl *client.Client, th core.Thread, v core.Variable, src, where string) {
	t.Helper()
	got, err := ctrl.EvaluateAt(th.BreakpointID, th.Instance, src)
	if v.Unknown {
		if err == nil {
			t.Errorf("%s: frame shows Unknown, server evaluate answered %+v", where, got)
		}
		return
	}
	want := proto.ValueInfoOf(v.BitsValue(), 0)
	if err != nil || got.Value != want.Value || got.Width != want.Width || got.Display != want.Display {
		t.Errorf("%s: server evaluate = %+v (%v), frame %+v", where, got, err, want)
	}
}

// checkDAPEval evaluates src through DAP in the thread's frame and
// compares the rendering with frame variable v.
func checkDAPEval(t *testing.T, d *dapClient, frame int, v core.Variable, src, where string) {
	t.Helper()
	args := EvaluateArguments{Expression: src, FrameID: frame, Context: "hover"}
	if v.Unknown {
		d.requestFail("evaluate", args)
		return
	}
	got := decodeBody[EvaluateResponse](t, d.request("evaluate", args))
	if want := fmt.Sprintf("u%d", v.Width); got.Result != v.Display() || got.Type != want {
		t.Errorf("%s: DAP evaluate = %s %s, frame %s %s", where, got.Result, got.Type, v.Display(), want)
	}
}
