package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/riscv"
	"repro/internal/symtab"
	"repro/internal/vcd"
	"repro/internal/vpi"
)

// replay-reverse: a recorded Fig 5 program trace served by the
// checkpointed replay engine. Each episode continues forward to a
// breakpoint hit, reverse-steps a seeded 1–32 statements, steps forward
// a seeded 0–3, then continues (re-hitting the origin, then on to the
// next hit). It loads replay, vcd, symtab load and core's reverse
// scheduling; sim, server and ws are bypassed.

const (
	replayBreakpoints = 48
	replayHits        = 8
	replayPeriod      = 512 // one hit every 64 cycles
)

// replayTraceCycles is the recorded trace's length: the single-core
// programs back to back in seeded order, the last one cut at this
// cycle, so every seed replays the same amount of trace.
const replayTraceCycles = 20000

// replayFixture is the trace, its index, the saved symbol table, and
// the oracle: per-cycle snapshots of the live simulation taken while
// the trace was recorded, independent of vcd and replay (see
// recordPrograms for which state a snapshot holds).
type replayFixture struct {
	vcdPath   string
	storePath string
	tabPath   string
	indexS    float64
	oracle    map[string][]uint64 // RTL path -> value at each cycle
}

// prepareReplayFixture records the single-core programs in seeded
// order, checking each completed program's result, indexes the trace
// and saves the symbol table.
func prepareReplayFixture(dir string, seed uint64, res *result) (*replayFixture, error) {
	var single []*riscv.Workload
	for _, w := range riscv.Workloads() {
		if !w.MT {
			single = append(single, w)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(dir, fmt.Sprintf("trace-seed%d", seed))
	fx := &replayFixture{vcdPath: base + ".vcd", storePath: base + ".hgdbstore", tabPath: base + ".symtab", oracle: map[string][]uint64{}}

	m, err := riscv.NewMachine(1, false)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, bp := range m.Table.AllBreakpoints() {
		for _, v := range m.Table.ScopeVars(bp.ID) {
			p := bp.InstanceName + "." + v.RTL
			if _, seen := fx.oracle[p]; seen {
				continue
			}
			if _, err := m.Sim.Peek(p); err == nil {
				fx.oracle[p] = nil
				paths = append(paths, p)
			}
		}
	}
	f, err := os.Create(fx.vcdPath)
	if err != nil {
		return nil, err
	}
	rec := vcd.NewRecorder(m.Sim, f)
	snap := func() {
		t := m.Sim.Time()
		for _, p := range paths {
			v, _ := m.Sim.Peek(p)
			fx.oracle[p] = append(fx.oracle[p][:t], v.Bits)
		}
	}
	snap()
	err = recordPrograms(m, single, newRNG(seed, "replay-reverse/programs"), snap, res)
	if err == nil {
		err = rec.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("record trace: %w", err)
	}
	t0 := time.Now()
	if _, err := vcd.IndexFile(fx.vcdPath, fx.storePath, vcd.StoreOptions{}); err != nil {
		return nil, err
	}
	fx.indexS = time.Since(t0).Seconds()
	tf, err := os.Create(fx.tabPath)
	if err != nil {
		return nil, err
	}
	err = m.Table.Save(tf)
	if cerr := tf.Close(); err == nil {
		err = cerr
	}
	return fx, err
}

// recordPrograms runs programs in seeded order until the simulation
// reaches replayTraceCycles, calling snap after every clock edge.
//
// snap records the settled state after each edge: the state a trace
// holds at that time. The clock-edge callback would instead see writes
// made between edges (program load, reset assert), which the recorder
// attributes to the next timestamp.
func recordPrograms(m *riscv.Machine, progs []*riscv.Workload, r *rng, snap func(), res *result) error {
	reset := m.Top + ".reset"
	step := func() bool {
		if m.Sim.Time() >= replayTraceCycles {
			return false
		}
		m.Sim.Step()
		snap()
		return true
	}
	for {
		for _, i := range r.perm(len(progs)) {
			w := progs[i]
			if err := m.Load(0, w.Prog); err != nil {
				return err
			}
			// Machine.Reset, with a snapshot after each edge.
			if err := m.Sim.Poke(reset, 1); err != nil {
				return err
			}
			step()
			step()
			if err := m.Sim.Poke(reset, 0); err != nil {
				return err
			}
			if err := runToHalt(m, w, step); err != nil {
				return err
			}
			if m.Sim.Time() >= replayTraceCycles {
				return nil // the last program is cut; its result is not checked
			}
			checkResult(res, m, w)
		}
	}
}

// replaySession is one ready-to-debug replay: loaded table, opened
// store, engine, runtime and armed breakpoints.
type replaySession struct {
	store  *vcd.Store
	eng    *replay.Engine
	rt     *core.Runtime
	loadMS float64
	openMS float64
}

func setupReplay(fx *replayFixture, seed uint64, tr *tracer) (*replaySession, error) {
	rs := &replaySession{}
	t0 := time.Now()
	tf, err := os.Open(fx.tabPath)
	if err != nil {
		return nil, err
	}
	tab, err := symtab.Load(tf)
	tf.Close()
	if err != nil {
		return nil, err
	}
	rs.loadMS = ms(time.Since(t0))
	t1 := time.Now()
	if rs.store, err = vcd.OpenStoreFile(fx.storePath, vcd.OpenOptions{}); err != nil {
		return nil, err
	}
	rs.openMS = ms(time.Since(t1))
	rs.eng = replay.NewStore(rs.store)
	var backend vpi.Interface = rs.eng
	if tr != nil {
		backend = wrapBackend(backend, tr)
	}
	if rs.rt, err = core.New(backend, tab); err != nil {
		rs.store.Close()
		return nil, err
	}
	r := newRNG(seed, "replay-reverse/breakpoints")
	if _, err := armAll(rs.rt, armSet(r, tab, replayBreakpoints, replayHits, replayPeriod)); err != nil {
		rs.close()
		return nil, err
	}
	return rs, nil
}

func (rs *replaySession) close() {
	rs.rt.Detach()
	rs.store.Close()
}

// replayDriver is the in-process handler: it times each command from
// the handler's return to the next handler entry, checks every stop
// against the oracle and plans the next episode.
type replayDriver struct {
	res *result
	fx  *replayFixture
	tr  *tracer
	r   *rng

	plan        []core.Command
	originT     uint64
	originLine  int
	awaitRehit  bool
	last        core.Command
	lastReturn  time.Time
	longCont    bool   // the pending continue left an origin re-hit
	contStart   uint64 // its start time
	lastSnap    traceTotals
	revTotals   traceTotals
	prevTime    uint64
	revIntra    samples // reverse steps within a cycle
	revCross    samples // reverse steps into an earlier cycle (SetTime)
	fwd         samples
	cont        samples
	contCycles  []float64 // cycles replayed by each cont sample
	digests     []uint64  // every stop's digest, when non-nil
	stops       int
	missedRehit int
}

func (d *replayDriver) onStop(ev *core.StopEvent) core.Command {
	now := time.Now()
	if !d.lastReturn.IsZero() {
		lat := now.Sub(d.lastReturn)
		switch d.last {
		case core.CmdReverseStep:
			if ev.Time < d.prevTime {
				d.revCross.add(lat)
			} else {
				d.revIntra.add(lat)
			}
			d.revTotals = d.revTotals.add(d.tr.snapshot().sub(d.lastSnap))
		case core.CmdStep:
			d.fwd.add(lat)
		case core.CmdContinue:
			if d.longCont && ev.Time > d.contStart {
				d.cont.add(lat)
				d.contCycles = append(d.contCycles, float64(ev.Time-d.contStart))
			}
		}
	}
	d.prevTime = ev.Time
	start := time.Now()
	d.stops++
	if d.digests != nil {
		d.digests = append(d.digests, stopDigest(ev))
	}
	d.checkStop(ev)
	cmd := d.next(ev)
	d.tr.record(spanHandler, start, time.Now())
	d.last = cmd
	d.lastSnap = d.tr.snapshot()
	d.lastReturn = time.Now()
	return cmd
}

func (d *replayDriver) next(ev *core.StopEvent) core.Command {
	bpStop := !ev.StepStop && !ev.Reverse
	d.longCont = false
	if bpStop && d.awaitRehit && ev.Time == d.originT && ev.Line == d.originLine {
		d.awaitRehit = false
		d.longCont, d.contStart = true, ev.Time
		return core.CmdContinue
	}
	if bpStop {
		if d.awaitRehit {
			d.missedRehit++
		}
		d.originT, d.originLine = ev.Time, ev.Line
		d.plan = d.plan[:0]
		for i := 1 + d.r.intn(32); i > 0; i-- {
			d.plan = append(d.plan, core.CmdReverseStep)
		}
		for i := d.r.intn(4); i > 0; i-- {
			d.plan = append(d.plan, core.CmdStep)
		}
		d.awaitRehit = false
	}
	if len(d.plan) == 0 {
		d.awaitRehit = true
		return core.CmdContinue
	}
	cmd := d.plan[0]
	d.plan = d.plan[1:]
	return cmd
}

// checkStop compares every local with the oracle's snapshot of the
// live simulation at the stop's cycle.
func (d *replayDriver) checkStop(ev *core.StopEvent) {
	for _, th := range ev.Threads {
		for _, v := range th.Locals {
			snap, ok := d.fx.oracle[v.RTL]
			want := ^uint64(0)
			if ok && ev.Time < uint64(len(snap)) {
				want = snap[ev.Time]
			}
			d.res.check(ok && !v.Unknown && v.Value == want,
				"replay t=%d %s:%d rev=%v: local %s=%d, recorded %d", ev.Time, ev.File, ev.Line, ev.Reverse, v.RTL, v.Value, want)
		}
	}
}

func runReplay(seed uint64, d time.Duration, tr *tracer) (*result, error) {
	res := &result{workload: "replay-reverse"}
	fx, err := prepareReplayFixture(filepath.Join(outDir, "fixtures"), seed, res)
	if err != nil {
		return nil, fmt.Errorf("replay-reverse fixture: %w", err)
	}
	var rs *replaySession
	var setups, loads, opens []float64
	for i := 0; i < setupRepeats; i++ {
		if rs != nil {
			rs.close()
		}
		t0 := time.Now()
		if rs, err = setupReplay(fx, seed, tr); err != nil {
			return nil, fmt.Errorf("replay-reverse setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		loads = append(loads, rs.loadMS)
		opens = append(opens, rs.openMS)
	}
	defer rs.close()

	drv := &replayDriver{res: res, fx: fx, tr: tr, r: newRNG(seed, "replay-reverse/episodes")}
	rs.rt.SetHandler(drv.onStop)
	before := tr.snapshot()
	begin := time.Now()
	deadline := begin.Add(d)
	for time.Now().Before(deadline) {
		t0 := time.Now()
		ok := rs.eng.StepForward()
		tr.record(spanSimStep, t0, time.Now())
		if !ok {
			if err := rs.eng.SetTime(0); err != nil {
				return nil, err
			}
		}
	}
	loopUS := float64(time.Since(begin).Nanoseconds()) / 1e3
	window := tr.snapshot().sub(before)
	res.check(len(drv.revCross) > 0 && len(drv.cont) > 0, "replay-reverse: no complete episode (%d stops)", drv.stops)

	rates := make(samples, len(drv.cont))
	for i, us := range drv.cont {
		rates[i] = drv.contCycles[i] / (us / 1e6)
	}
	res.addE2E("rate_per_s", "replay_cycles_per_s", rates.windowed(0.5), "1/s", len(rates))
	res.addLatency("lat", "reverse_step", drv.revIntra)
	res.addLatency("lat2", "continue", drv.cont)
	res.info("reverse_step_cross", drv.revCross)
	res.info("forward_step", drv.fwd)
	fmt.Printf("   info %d stops, %d origin re-hits missed\n", drv.stops, drv.missedRehit)

	if tr != nil {
		rev := append(append(samples(nil), drv.revIntra...), drv.revCross...)
		nRev := float64(len(rev))
		rv := drv.revTotals
		read := rv.us(spanVPIRead) / nRev
		settime := rv.us(spanVPISetTime)
		poll := rv.us(spanVPIPoll) / nRev
		coreStop := (rev.mean()*nRev - rv.us(spanVPIRead) - rv.us(spanVPISetTime) - rv.us(spanVPIPoll)) / nRev
		res.addLayer("replay.read_us", read, "us", len(rev))
		res.addLayer("replay.settime_us", settime/float64(max(rv.count[spanVPISetTime], 1)), "us", int(rv.count[spanVPISetTime]))
		res.addLayer("replay.settime_calls", float64(rv.count[spanVPISetTime])/nRev, "count", len(rev))
		res.addLayer("replay.poll_us", poll, "us", len(rev))
		res.addLayer("core.stop_us", coreStop, "us", len(rev))
		edges := float64(window.count[spanSimStep])
		res.addLayer("replay.step_us", window.selfUS(spanSimStep)/edges, "us", int(edges))
		res.addLayer("core.replay_edge_us", window.selfUS(spanCallback)/edges, "us", int(edges))
		res.addLayer("replay.checkpoints", float64(rs.eng.Checkpoints()), "count", 0)
		res.addLayer("vcd.open_ms", samples(opens).mean(), "ms", len(opens))
		res.addLayer("symtab.load_ms", samples(loads).mean(), "ms", len(loads))
		res.addLayer("vcd.resident_bytes", float64(rs.store.IndexBytes()+rs.store.TimelineBytes()), "bytes", 0)
		res.addLayer("vcd.index_s", fx.indexS, "s", 1)
		// Blocking path of the drive loop: engine step self + core
		// callback self + backend reads, polls and seeks + handler.
		blocked := window.selfUS(spanSimStep) + window.selfUS(spanCallback) + window.us(spanVPIRead) +
			window.us(spanVPIPoll) + window.us(spanVPISetTime) + window.us(spanHandler)
		res.addLayer("residual_pct.replay-reverse", 100*(loopUS-blocked)/loopUS, "%", int(edges))
	}
	rs.rt.SetHandler(nil) // releases the driver, its samples and the oracle
	drv, fx = nil, nil
	res.addCommon(setups)
	return res, nil
}
