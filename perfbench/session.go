package main

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/riscv"
	"repro/internal/server"
	"repro/internal/vpi"
)

// step-session: the user pressing F10 in an editor while a teammate
// watches. A live one-core SoC runs the single-core Fig 5 programs
// behind server.Server on loopback. One JSON controller issues a seeded
// mix of steps (97%) and continues (to a few cadence breakpoints) with 0–3
// Evaluate queries at each stop; one binary+delta observer receives the
// broadcast. Load is closed-loop over two connections. It loads server,
// proto, ws and client plus core's stepping and frame-build path, and
// bypasses fused evaluation almost entirely.

const (
	sessionHits      = 4
	sessionQuiet     = 12
	sessionPeriod    = 256 // a continue runs about 64 cycles
	sessionStepShare = 97  // percent of commands that are steps: about one cycle of steps per continue
	waitTimeout      = 30 * time.Second
)

// stopDigest hashes everything a stop shows a user.
func stopDigest(ev *core.StopEvent) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %s:%d:%d r=%v s=%v", ev.Time, ev.File, ev.Line, ev.Col, ev.Reverse, ev.StepStop)
	for _, th := range ev.Threads {
		fmt.Fprintf(h, "|%s#%d", th.Instance, th.BreakpointID)
		for _, v := range th.Locals {
			fmt.Fprintf(h, " %s=%d/%d/%v", v.Name, v.Value, v.X, v.Unknown)
		}
		for _, v := range th.Generator {
			fmt.Fprintf(h, " g%s=%d", v.Name, v.Value)
		}
	}
	return h.Sum64()
}

// liveSession is one ready-to-debug live session.
type liveSession struct {
	m         *riscv.Machine
	rt        *core.Runtime
	srv       *server.Server
	ctrl      *client.Client
	obs       *client.Client
	sub       *client.Subscription
	connectMS float64
}

func setupSession(seed uint64, tr *tracer) (*liveSession, error) {
	ls := &liveSession{}
	var err error
	if ls.m, err = riscv.NewMachine(1, false); err != nil {
		return nil, err
	}
	var backend vpi.Interface = vpi.NewSimBackend(ls.m.Sim)
	if tr != nil {
		backend = wrapBackend(backend, tr)
	}
	if ls.rt, err = core.New(backend, ls.m.Table); err != nil {
		return nil, err
	}
	ls.srv = server.New(ls.rt, nil)
	addr, err := ls.srv.Listen("127.0.0.1:0")
	if err != nil {
		ls.rt.Detach()
		return nil, err
	}
	t0 := time.Now()
	if ls.ctrl, err = client.Dial(addr); err == nil {
		_, err = ls.ctrl.WaitEvent("welcome", waitTimeout)
	}
	if err != nil {
		ls.close()
		return nil, fmt.Errorf("controller attach: %w", err)
	}
	ls.obs = client.NewOpts(addr, client.Options{Binary: true, Delta: true})
	// Sized for every stop of a run: a full buffer would drop events
	// on the client side.
	ls.sub = ls.obs.Subscribe(1<<16, "stop")
	if err = ls.obs.Connect(); err == nil {
		_, err = ls.obs.WaitEvent("welcome", waitTimeout)
	}
	if err != nil {
		ls.close()
		return nil, fmt.Errorf("observer attach: %w", err)
	}
	ls.connectMS = ms(time.Since(t0)) / 2
	if ls.ctrl.Role() != proto.RoleController || ls.obs.Role() != proto.RoleObserver {
		ls.close()
		return nil, fmt.Errorf("roles: controller=%s observer=%s", ls.ctrl.Role(), ls.obs.Role())
	}
	r := newRNG(seed, "step-session/breakpoints")
	for _, s := range armSet(r, ls.m.Table, sessionHits+sessionQuiet, sessionHits, sessionPeriod) {
		if _, err := ls.ctrl.AddBreakpoint(s.File, s.Line, s.Cond); err != nil {
			ls.close()
			return nil, fmt.Errorf("arm %s:%d: %w", s.File, s.Line, err)
		}
	}
	return ls, nil
}

func (ls *liveSession) close() {
	if ls.sub != nil {
		ls.sub.Close()
	}
	if ls.obs != nil {
		ls.obs.Close()
	}
	if ls.ctrl != nil {
		ls.ctrl.Close()
	}
	ls.srv.Close()
	ls.rt.Detach()
}

// observed is the observer's view: stop digest and lag by broadcast
// sequence number.
type observed struct {
	mu     sync.Mutex
	digest map[uint64]uint64
	lag    samples
}

func runSession(seed uint64, d time.Duration, tr *tracer) (*result, error) {
	res := &result{workload: "step-session"}
	var ls *liveSession
	var setups, connects []float64
	for i := 0; i < setupRepeats; i++ {
		if ls != nil {
			ls.close()
		}
		t0 := time.Now()
		var err error
		if ls, err = setupSession(seed, tr); err != nil {
			return nil, fmt.Errorf("step-session setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		connects = append(connects, ls.connectMS)
	}
	defer ls.close()

	// The observer records every stop it is sent.
	obs := &observed{digest: map[uint64]uint64{}}
	obsDone := make(chan struct{})
	go func() {
		defer close(obsDone)
		for ev := range ls.sub.C {
			if ev.Type != "stop" || ev.Stop == nil {
				continue
			}
			lag := time.Duration(time.Now().UnixNano() - ev.Emit)
			obs.mu.Lock()
			obs.digest[ev.Seq] = stopDigest(ev.Stop)
			obs.lag.add(lag)
			obs.mu.Unlock()
		}
	}()

	// The simulation goroutine runs single-core programs in seeded
	// order until told to stop; the server's handler parks it at stops.
	var single []*riscv.Workload
	for _, w := range riscv.Workloads() {
		if !w.MT {
			single = append(single, w)
		}
	}
	var stopSim atomic.Bool
	simDone := make(chan error, 1)
	go func() {
		r := newRNG(seed, "step-session/order")
		for !stopSim.Load() {
			for _, i := range r.perm(len(single)) {
				if stopSim.Load() {
					break
				}
				if err := runLive(ls.m, single[i], res, tr); err != nil {
					simDone <- err
					return
				}
			}
		}
		simDone <- nil
	}()

	rtt, cmdUS, emitUS, deliverUS, query, cont, stopAt, ctrlDigest, err := driveController(ls.ctrl, seed, d, res)
	// Collect the server's per-session accounting before the detach
	// tears anything down.
	infos, serr := ls.ctrl.Sessions()
	stopSim.Store(true)
	if err == nil {
		err = ls.ctrl.ClearBreakpoints()
	}
	if derr := ls.ctrl.Command("detach"); err == nil {
		err = derr
	}
	// A failed detach can leave the simulation parked at a stop; the
	// deferred close shuts the server down, which releases it.
	select {
	case simErr := <-simDone:
		if err == nil {
			err = simErr
		}
	case <-time.After(waitTimeout):
		if err == nil {
			err = fmt.Errorf("simulation did not finish after detach")
		}
	}
	if err == nil {
		err = serr
	}
	if err != nil {
		return nil, fmt.Errorf("step-session: %w", err)
	}

	// The observer must have been sent every stop the controller saw,
	// minus any the server reports it coalesced or dropped for it.
	var obsInfo proto.SessionInfo
	var bytes uint64
	for _, in := range infos {
		bytes += in.BytesSent
		if in.ID == ls.obs.SessionID() {
			obsInfo = in
		}
	}
	waitObserved(obs, ctrlDigest)
	ls.sub.Close()
	<-obsDone
	missing := 0
	for seq, want := range ctrlDigest {
		got, ok := obs.digest[seq]
		if !ok {
			missing++
			continue
		}
		res.check(got == want, "observer stop seq %d differs from the controller's", seq)
	}
	for seq := range obs.digest {
		_, ok := ctrlDigest[seq]
		res.check(ok, "observer saw stop seq %d the controller never received", seq)
	}
	res.check(uint64(missing) <= obsInfo.Coalesced+obsInfo.Dropped,
		"observer missed %d stops; server reports %d coalesced, %d dropped", missing, obsInfo.Coalesced, obsInfo.Dropped)

	res.addE2E("rate_per_s", "stops_per_s", windowedRate(stopAt), "1/s", len(stopAt))
	res.addLatency("lat", "step_rtt", rtt)
	res.addLatency("lat2", "observer_lag", obs.lag)
	res.info("query_rtt", query)
	res.info("continue_rtt", cont)
	fmt.Printf("   info observer missed %d of %d stops\n", missing, len(ctrlDigest))

	if tr != nil {
		c, e, dl := cmdUS.mean(), emitUS.mean(), deliverUS.mean()
		res.addLayer("client.command_us", c, "us", len(cmdUS))
		res.addLayer("server.stop_emit_us", e, "us", len(emitUS))
		res.addLayer("client.deliver_us", dl, "us", len(deliverUS))
		res.addLayer("client.connect_ms", samples(connects).mean(), "ms", len(connects))
		res.addLayer("server.bytes_per_stop", float64(bytes)/float64(len(ctrlDigest)), "bytes", len(ctrlDigest))
		res.addLayer("server.coalesced", float64(obsInfo.Coalesced), "count", 0)
		res.addLayer("server.dropped", float64(obsInfo.Dropped), "count", 0)
		res.addLayer("proto.delta_ratio", float64(obsInfo.DeltaFrames)/float64(max(obsInfo.DeltaFrames+obsInfo.FullFrames, 1)), "ratio", int(obsInfo.DeltaFrames+obsInfo.FullFrames))
		// The step round trip is the sum of the three client-side
		// intervals; the residual is what their means leave of the
		// mean round trip.
		m := rtt.mean()
		res.addLayer("residual_pct.step-session", 100*(m-(c+e+dl))/m, "%", len(rtt))
	}
	rtt, cmdUS, emitUS, deliverUS, query, cont, stopAt, obs = nil, nil, nil, nil, nil, nil, nil, nil
	ctrlDigest = nil
	res.addCommon(setups)
	return res, nil
}

// waitObserved waits until the observer has every stop the controller
// saw, or until it stops making progress.
func waitObserved(obs *observed, want map[uint64]uint64) {
	deadline := time.Now().Add(5 * time.Second)
	prev := -1
	for time.Now().Before(deadline) {
		obs.mu.Lock()
		n := len(obs.digest)
		obs.mu.Unlock()
		if n >= len(want) || n == prev {
			return
		}
		prev = n
		time.Sleep(50 * time.Millisecond)
	}
}

// runLive runs one program on the live SoC and checks its result.
func runLive(m *riscv.Machine, w *riscv.Workload, res *result, tr *tracer) error {
	if err := loadAndReset(m, w); err != nil {
		return err
	}
	err := runToHalt(m, w, func() bool {
		t0 := time.Now()
		m.Sim.Step()
		tr.record(spanSimStep, t0, time.Now())
		return true
	})
	checkResult(res, m, w)
	return err
}

// driveController runs the controller's closed loop for d: at each stop
// it issues 0–3 Evaluate queries checked against the frame, then a
// seeded step or continue, and times the round trip to the next stop.
//
// stopAt holds each received stop's arrival, in seconds from the start.
func driveController(ctrl *client.Client, seed uint64, d time.Duration, res *result) (rtt, cmdUS, emitUS, deliverUS, query, cont samples, stopAt []float64, digests map[uint64]uint64, err error) {
	r := newRNG(seed, "step-session/commands")
	digests = map[uint64]uint64{}
	ev, err := ctrl.WaitEvent("stop", waitTimeout)
	if err != nil {
		return
	}
	begin := time.Now()
	deadline := begin.Add(d)
	for {
		if ev.Stop == nil {
			err = fmt.Errorf("stop event %d without a frame", ev.Seq)
			return
		}
		digests[ev.Seq] = stopDigest(ev.Stop)
		for q := r.intn(4); q > 0; q-- {
			th := ev.Stop.Threads[r.intn(len(ev.Stop.Threads))]
			if len(th.Locals) == 0 {
				continue
			}
			v := th.Locals[r.intn(len(th.Locals))]
			// Query the instance-local RTL name the frame bound: by
			// source name, evaluate resolves in instance scope and
			// reads a different SSA version of some locals.
			name := strings.TrimPrefix(v.RTL, th.Instance+".")
			t0 := time.Now()
			got, qerr := ctrl.Evaluate(th.Instance, name)
			query.add(time.Since(t0))
			res.check(qerr == nil && got.Value == v.Value && got.Width == v.Width,
				"evaluate %s in %s at t=%d: got %d/%d, frame %d/%d (%v)", name, th.Instance, ev.Stop.Time, got.Value, got.Width, v.Value, v.Width, qerr)
		}
		if !time.Now().Before(deadline) {
			return
		}
		cmd := "continue"
		if r.intn(100) < sessionStepShare {
			cmd = "step"
		}
		t0 := time.Now()
		if err = ctrl.Command(cmd); err != nil {
			return
		}
		t1 := time.Now()
		if ev, err = ctrl.WaitEvent("stop", waitTimeout); err != nil {
			return
		}
		t2 := time.Now()
		stopAt = append(stopAt, t2.Sub(begin).Seconds())
		if cmd == "step" {
			rtt.add(t2.Sub(t0))
			cmdUS.add(t1.Sub(t0))
			emitUS.addValue(float64(ev.Emit-t1.UnixNano()) / 1e3)
			deliverUS.addValue(float64(t2.UnixNano()-ev.Emit) / 1e3)
		} else {
			cont.add(t2.Sub(t0))
		}
	}
}
