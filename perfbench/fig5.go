package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/riscv"
	"repro/internal/vpi"
)

// fig5-armed: the paper's §4.3 debugger cost per clock edge with the
// network bypassed. Every Figure 5 program runs to completion on the
// optimized SoC with its own seeded set of 70–80 conditional
// breakpoints and an in-process handler that checks each stop and
// continues.

// fig5Count draws a program's breakpoint count. The band is narrow
// because per-edge cost grows with the armed count and programs differ
// fivefold in length: a wide band would make the seed, not the
// program, set the result.
func fig5Count(r *rng) int { return 70 + r.intn(11) }

const (
	fig5Hits   = 3    // cadence breakpoints per program
	fig5Period = 1024 // cycles per cadence; 3 hits per 1024 cycles
)

// fig5Prog is one program with its own machine, runtime and armed set.
type fig5Prog struct {
	w     *riscv.Workload
	m     *riscv.Machine
	rt    *core.Runtime
	specs []bpSpec
	armed int

	res     *result
	tr      *tracer
	stopped bool
	stops   int
	runs    int
}

type fig5Setup struct {
	progs   []*fig5Prog
	buildMS []float64
	armMS   []float64
}

// close detaches every runtime, stopping their worker pools.
func (st *fig5Setup) close() {
	for _, p := range st.progs {
		p.rt.Detach()
	}
}

func setupFig5(seed uint64, tr *tracer, res *result) (*fig5Setup, error) {
	ws := riscv.Workloads()
	r := newRNG(seed, "fig5-armed")
	st := &fig5Setup{}
	for _, w := range ws {
		cores := 1
		if w.MT {
			cores = 2
		}
		t0 := time.Now()
		m, err := riscv.NewMachine(cores, false)
		if err != nil {
			return nil, err
		}
		st.buildMS = append(st.buildMS, ms(time.Since(t0)))
		var backend vpi.Interface = vpi.NewSimBackend(m.Sim)
		if tr != nil {
			backend = wrapBackend(backend, tr)
		}
		rt, err := core.New(backend, m.Table)
		if err != nil {
			return nil, err
		}
		p := &fig5Prog{w: w, m: m, rt: rt, res: res, tr: tr}
		p.specs = armSet(r, m.Table, fig5Count(r), fig5Hits, fig5Period)
		t1 := time.Now()
		if p.armed, err = armAll(rt, p.specs); err != nil {
			return nil, err
		}
		st.armMS = append(st.armMS, ms(time.Since(t1)))
		rt.SetHandler(p.onStop)
		st.progs = append(st.progs, p)
	}
	return st, nil
}

// onStop is the in-process handler: every local of every hit thread
// must equal a direct simulator read of its RTL path.
func (p *fig5Prog) onStop(ev *core.StopEvent) core.Command {
	start := time.Now()
	p.stopped = true
	p.stops++
	for _, th := range ev.Threads {
		for _, v := range th.Locals {
			got, err := p.m.Sim.Peek(v.RTL)
			p.res.check(err == nil && !v.Unknown && got.Bits == v.Value,
				"fig5 %s t=%d %s: local %s=%d, sim %s=%d (%v)", p.w.Name, ev.Time, th.Instance, v.Name, v.Value, v.RTL, got.Bits, err)
		}
	}
	p.tr.record(spanHandler, start, time.Now())
	return core.CmdContinue
}

// fig5Chunk is how many consecutive edges one throughput sample spans.
const fig5Chunk = 1024

// fig5Run accumulates one measured pass.
type fig5Run struct {
	edges, stopEdges, arms samples
	chunkRates             samples // cycles per second over each fig5Chunk edges
	bareUS                 samples // traced: bare per-edge time
	cycles                 int64   // simulated in timed loops
	loopUS                 float64 // host time of the timed loops
	evals, skipped, evald  uint64
}

// run re-arms the program's breakpoints, reloads and resets the
// machine, then steps it to completion with per-edge timing, and checks
// the architectural result against the reference model.
func (p *fig5Prog) run(fr *fig5Run) error {
	p.rt.ClearBreakpoints()
	for _, s := range p.specs {
		t0 := time.Now()
		_, err := p.rt.AddBreakpointInstance(s.File, s.Line, s.Instance, s.Cond)
		fr.arms.add(time.Since(t0))
		if err != nil {
			return err
		}
	}
	if err := loadAndReset(p.m, p.w); err != nil {
		return err
	}
	evals0, _ := p.rt.Stats()
	sk0, ev0, _ := p.rt.ActivityStats()
	sim := p.m.Sim
	startT := sim.Time()
	begin := time.Now()
	chunkStart, n := begin, 0
	err := runToHalt(p.m, p.w, func() bool {
		p.stopped = false
		t0 := time.Now()
		sim.Step()
		t1 := time.Now()
		p.tr.record(spanSimStep, t0, t1)
		us := float64(t1.Sub(t0).Nanoseconds()) / 1e3
		if p.stopped {
			fr.stopEdges.addValue(us)
		} else {
			fr.edges.addValue(us)
		}
		if n++; n%fig5Chunk == 0 {
			fr.chunkRates.addValue(fig5Chunk / t1.Sub(chunkStart).Seconds())
			chunkStart = t1
		}
		return true
	})
	if err != nil {
		return err
	}
	p.runs++
	fr.loopUS += float64(time.Since(begin).Nanoseconds()) / 1e3
	fr.cycles += int64(sim.Time() - startT)
	evals1, _ := p.rt.Stats()
	sk1, ev1, _ := p.rt.ActivityStats()
	fr.evals += evals1 - evals0
	fr.skipped += sk1 - sk0
	fr.evald += ev1 - ev0
	checkResult(p.res, p.m, p.w)
	return nil
}

func loadAndReset(m *riscv.Machine, w *riscv.Workload) error {
	for i := range m.Cores {
		if err := m.Load(i, w.Prog); err != nil {
			return err
		}
	}
	return m.Reset()
}

// runToHalt calls step once per clock edge until every core has halted,
// w.MaxCycles edges have run, or step returns false.
func runToHalt(m *riscv.Machine, w *riscv.Workload, step func() bool) error {
	halt := m.Top + ".all_halted"
	for i := 0; i < w.MaxCycles && step(); i++ {
		v, err := m.Sim.Peek(halt)
		if err != nil {
			return err
		}
		if v.IsTrue() {
			return nil
		}
	}
	return nil
}

// checkResult compares every core's stored checksum with the Go
// reference model.
func checkResult(res *result, m *riscv.Machine, w *riscv.Workload) {
	sim := m.Sim
	halted, err := sim.Peek(m.Top + ".all_halted")
	res.check(err == nil && halted.IsTrue(), "%s did not halt within %d cycles", w.Name, w.MaxCycles)
	addr, err := w.ResultAddr()
	if err != nil {
		res.fail("%s: %v", w.Name, err)
		return
	}
	for c := range m.Cores {
		got, err := m.ReadWord(c, addr)
		res.check(err == nil && got == w.Expected(c), "%s core %d result %d, want %d (%v)", w.Name, c, got, w.Expected(c), err)
	}
}

// runBare steps a machine with no runtime attached through the program,
// timing each edge (the sim.bare_step_us reference).
func runBare(m *riscv.Machine, w *riscv.Workload, res *result, out *samples) error {
	if err := loadAndReset(m, w); err != nil {
		return err
	}
	err := runToHalt(m, w, func() bool {
		t0 := time.Now()
		m.Sim.Step()
		out.add(time.Since(t0))
		return true
	})
	checkResult(res, m, w)
	return err
}

func runFig5(seed uint64, d time.Duration, tr *tracer) (*result, error) {
	res := &result{workload: "fig5-armed"}
	var st *fig5Setup
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if st != nil {
			st.close()
		}
		if st, err = setupFig5(seed, tr, res); err != nil {
			return nil, fmt.Errorf("fig5-armed setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.close()
	var bare [3]*riscv.Machine // by core count, traced runs only
	if tr != nil {
		for _, n := range []int{1, 2} {
			m, err := riscv.NewMachine(n, false)
			if err != nil {
				return nil, err
			}
			bare[n] = m
		}
	}

	// Programs run in rounds, each round a fresh seeded order of all of
	// them, until the time is up.
	r := newRNG(seed, "fig5-armed/order")
	fr := &fig5Run{}
	before := tr.snapshot()
	var order []int
	for deadline := time.Now().Add(d); time.Now().Before(deadline); order = order[1:] {
		if len(order) == 0 {
			order = r.perm(len(st.progs))
		}
		p := st.progs[order[0]]
		if err := p.run(fr); err != nil {
			return nil, fmt.Errorf("fig5-armed %s: %w", p.w.Name, err)
		}
		if tr != nil {
			if err := runBare(bare[len(p.m.Cores)], p.w, res, &fr.bareUS); err != nil {
				return nil, err
			}
		}
	}
	window := tr.snapshot().sub(before)
	stops := 0
	for _, p := range st.progs {
		stops += p.stops
	}
	res.check(stops > 0, "fig5-armed: no breakpoint stopped")

	res.addE2E("rate_per_s", "cycles_per_s", fr.chunkRates.windowed(0.5), "1/s", len(fr.chunkRates))
	res.addLatency("lat", "quiet_edge", fr.edges)
	res.addLatency("lat2", "arm", fr.arms)
	res.info("stop_edge", fr.stopEdges)

	if tr != nil {
		edges := float64(window.count[spanSimStep])
		// The fused schedule is built at the first edge after arming, so
		// only programs that ran have one.
		var fuse expr.FuseStats
		ran := 0
		for _, p := range st.progs {
			if p.runs == 0 {
				continue
			}
			ran++
			fs, ok := p.rt.FuseInfo()
			res.check(ok, "fig5-armed %s: no fused schedule", p.w.Name)
			fuse.Conds += fs.Conds
			fuse.SharedSegs += fs.SharedSegs
			fuse.Operands += fs.Operands
		}
		n := float64(ran)
		simSelf := window.selfUS(spanSimStep) / edges
		read := window.us(spanVPIRead) / edges
		poll := window.us(spanVPIPoll) / edges
		coreSelf := window.selfUS(spanCallback) / edges
		handler := window.us(spanHandler) / edges
		loop := fr.loopUS / float64(fr.cycles)
		res.addLayer("sim.step_us", simSelf, "us", int(edges))
		res.addLayer("sim.bare_step_us", fr.bareUS.mean(), "us", len(fr.bareUS))
		res.addLayer("vpi.read_us", read, "us", int(edges))
		res.addLayer("vpi.poll_us", poll, "us", int(edges))
		res.addLayer("vpi.paths_per_edge", float64(window.paths)/edges, "count", int(edges))
		res.addLayer("core.edge_us", coreSelf, "us", int(edges))
		res.addLayer("core.evals_per_edge", float64(fr.evals)/edges, "count", int(edges))
		res.addLayer("core.skip_ratio", float64(fr.skipped)/float64(fr.skipped+fr.evald), "ratio", int(edges))
		res.addLayer("core.arm_ms", samples(st.armMS).mean(), "ms", len(st.armMS))
		res.addLayer("expr.fused_conds", float64(fuse.Conds)/n, "count", ran)
		res.addLayer("expr.cse_segs", float64(fuse.SharedSegs)/n, "count", ran)
		res.addLayer("expr.operands", float64(fuse.Operands)/n, "count", ran)
		res.addLayer("riscv.build_ms", samples(st.buildMS).mean(), "ms", len(st.buildMS))
		res.addLayer("fig5.handler_us", handler, "us", int(edges))
		// Blocking path per edge: sim self + vpi + core self + handler;
		// the residual is the loop's halt check and timer reads.
		res.addLayer("residual_pct.fig5-armed", 100*(loop-(simSelf+read+poll+coreSelf+handler))/loop, "%", int(edges))
	}
	fr = nil
	res.addCommon(setups)
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
