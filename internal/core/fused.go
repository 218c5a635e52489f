package core

import (
	"repro/internal/eval"
	"repro/internal/expr"
)

// This file wires whole-schedule fused condition compilation into the
// scheduler. Every dependency-union rebuild also rebuilds ONE fused
// program (expr.Fuse) covering each armed breakpoint condition and
// watchpoint expression whose dependencies are verified and slotted;
// at each forward, non-stepping clock edge the scheduler executes that
// program once on the simulation goroutine — shared CSE prelude, then
// every per-condition segment on one machine — and the group walk
// merely consumes per-condition results.
//
// The activity skip is a packed bitmap over fused condition ids,
// snapshotted before each run so the program skips parked conditions
// and the group walk accounts them. Anything the fused fast path
// cannot prove — an unverified dependency, a failed operand fetch, a
// poisoned shared segment — falls back to the exact per-condition path
// (evalBP), so fused scheduling is bit-identical to exhaustive
// evaluation. Stepping (and so reverse scheduling) walks every member
// through evaluateGroup instead, and so does a forward edge when no
// fused schedule exists: then every armed group is evaluated, correct
// but unskipped.

// fusedState is the per-union-generation fused schedule: the compiled
// program, its membership maps, and the per-edge execution buffers.
// All fields are simulation-goroutine state.
type fusedState struct {
	sched *expr.FusedSchedule

	// conds maps fused condition id -> armed breakpoint, for ids below
	// watchBase; ids at and above watchBase are watchpoint values in
	// rt.watches order of the fusable subset.
	conds     []*insertedBP
	watchBase int

	// groupConds / groupExtra partition each group's armed members into
	// fused condition ids and unfusable members (evaluated by evalBP
	// during consumption), indexed like rt.allGroups.
	groupConds [][]int32
	groupExtra [][]*insertedBP

	// slotConds inverts each condition's operand closure onto the
	// dependency union: commitSlot clears the skip flags of every
	// condition that could observe the changed slot.
	slotConds [][]int32

	// condSkip marks provable misses (breakpoint conditions only);
	// parked counts the set flags so a fully-idle edge skips execution
	// outright. mask packs condSkip as it stood before the edge's run:
	// bit ci set means condition ci was not re-evaluated this edge.
	condSkip []bool
	parked   int
	mask     []uint64

	// Per-edge execution buffers; shared prelude values stay in the
	// machine's register file between ExecShared and ExecConds.
	opsVals []eval.Value
	opsOK   []bool
	shOK    []bool
	results []eval.Value
	resOK   []bool
	machine eval.FusedMachine

	valid bool
	time  uint64
}

// masked reports whether condition ci was skipped by this edge's run.
func (fs *fusedState) masked(ci int32) bool {
	return fs.mask[ci>>6]&(1<<(uint32(ci)&63)) != 0
}

// rebuildFused recompiles the fused schedule from the current armed
// set. Runs under rt.mu from rebuildDeps, after slot assignment.
func (rt *Runtime) rebuildFused() {
	fs := &fusedState{
		groupConds: make([][]int32, len(rt.allGroups)),
		groupExtra: make([][]*insertedBP, len(rt.allGroups)),
	}
	var fconds []expr.FusedCondition
	for gi, g := range rt.allGroups {
		for _, cand := range g.bps {
			armed, ok := rt.inserted[cand.bp.ID]
			if !ok {
				continue
			}
			if armed.enable.fusable() && armed.cond.fusable() {
				var fc expr.FusedCondition
				if e := armed.enable; e != nil {
					fc.Enable, fc.EnableSlots = e.prog, e.slots
				}
				if c := armed.cond; c != nil {
					fc.Cond, fc.CondSlots = c.prog, c.slots
				}
				fs.groupConds[gi] = append(fs.groupConds[gi], int32(len(fconds)))
				fconds = append(fconds, fc)
				fs.conds = append(fs.conds, armed)
			} else {
				fs.groupExtra[gi] = append(fs.groupExtra[gi], armed)
			}
		}
	}
	fs.watchBase = len(fconds)
	// Watchpoint value expressions ride the same program as extra
	// conditions; checkWatches consumes their values instead of truth.
	for _, w := range rt.watches {
		w.fusedID = -1
		if !w.bound.fusable() {
			continue
		}
		w.fusedID = len(fconds)
		fconds = append(fconds, expr.FusedCondition{Cond: w.bound.prog, CondSlots: w.bound.slots})
	}
	if len(fconds) == 0 {
		rt.fused = nil
		return
	}
	sched, err := expr.Fuse(fconds)
	if err != nil {
		// A schedule the fuser rejects (register file or operand count
		// overflow) leaves every armed group to evaluateGroup at every
		// edge; correctness never depends on fusion.
		rt.fused = nil
		return
	}
	fs.sched = sched
	n := len(sched.Prog.Conds)
	fs.opsVals = make([]eval.Value, len(sched.Slots))
	fs.opsOK = make([]bool, len(sched.Slots))
	fs.shOK = make([]bool, sched.Prog.NumShared)
	fs.results = make([]eval.Value, n)
	fs.resOK = make([]bool, n)
	fs.condSkip = make([]bool, n)
	fs.mask = make([]uint64, (n+63)/64)
	fs.slotConds = make([][]int32, len(rt.depUnion))
	for ci, clo := range sched.OpClosures {
		for _, op := range clo {
			s := sched.Slots[op]
			fs.slotConds[s] = append(fs.slotConds[s], int32(ci))
		}
	}
	rt.fused = fs
}

// fusedReady returns the fused state with results current for time t,
// executing the fused program if this edge has not run it yet (or a
// stop handler invalidated the previous run). Returns nil when no
// schedule is built, or when SetExhaustiveEval or SetGeneralEval turns
// the fast path off. Callers must have run ensurePrefetch(t).
func (rt *Runtime) fusedReady(t uint64) *fusedState {
	fs := rt.fused
	if fs == nil || !rt.deltaOn() || rt.generalEval.Load() {
		return nil
	}
	if fs.valid && fs.time == t {
		return fs
	}
	rt.runFused(fs, t)
	return fs
}

// runFused executes the whole fused schedule once: gather operands from
// the prefetch cache, pack the skip bitmap, run the shared prelude, then
// every unmasked condition segment.
func (rt *Runtime) runFused(fs *fusedState, t uint64) {
	sched := fs.sched
	if fs.parked == fs.watchBase && fs.watchBase == len(fs.resOK) {
		// Every breakpoint condition is a parked provable miss and no
		// watch rides the program: the idle edge needs no execution at
		// all, only the mask for the group walk to consume.
		fs.packMask()
		fs.valid, fs.time = true, t
		return
	}
	for k, s := range sched.Slots {
		fs.opsVals[k] = rt.prefetched[s]
		fs.opsOK[k] = rt.prefetchOK[s]
	}
	fs.packMask()
	fs.machine.ExecShared(&sched.Prog, fs.opsVals, fs.opsOK, fs.shOK)
	fs.machine.ExecConds(&sched.Prog, fs.opsVals, fs.opsOK, fs.shOK, fs.mask, fs.results, fs.resOK)
	fs.valid, fs.time = true, t
	// Account evaluated breakpoint conditions and park fresh provable
	// misses: a condition that evaluated sound-and-false stays skipped
	// until a slot in its operand closure moves (markSlotDirty).
	evaluated := 0
	for ci := 0; ci < fs.watchBase; ci++ {
		if fs.condSkip[ci] {
			continue
		}
		evaluated++
		if fs.resOK[ci] && !fs.results[ci].IsTrue() {
			fs.condSkip[ci] = true
			fs.parked++
		}
	}
	if evaluated > 0 {
		rt.mu.Lock()
		rt.evalCount += uint64(evaluated)
		rt.mu.Unlock()
	}
	rt.statFusedRuns.Add(1)
}

// packMask snapshots the skip flags into the bitmap the run and the
// group walk read, before the run parks fresh misses.
func (fs *fusedState) packMask() {
	clear(fs.mask)
	// Only breakpoint conditions are maskable; watch values always
	// recompute (their own canSkip check lives in checkWatches).
	for ci := 0; ci < fs.watchBase; ci++ {
		if fs.condSkip[ci] {
			fs.mask[ci>>6] |= 1 << (uint(ci) & 63)
		}
	}
}

// fusedGroupEval consumes one group's fused results: masked conditions
// are provable misses, sound results decide directly, poisoned results
// and unfusable members fall back to the exact per-condition path.
func (rt *Runtime) fusedGroupEval(fs *fusedState, gi int) []*insertedBP {
	var hits []*insertedBP
	evaluated := 0
	fallback := 0
	for _, ci := range fs.groupConds[gi] {
		if fs.masked(ci) {
			continue
		}
		evaluated++
		if !fs.resOK[ci] {
			fallback++
			if rt.evalBP(fs.conds[ci]) {
				hits = append(hits, fs.conds[ci])
			}
			continue
		}
		if fs.results[ci].IsTrue() {
			hits = append(hits, fs.conds[ci])
		}
	}
	for _, ibp := range fs.groupExtra[gi] {
		evaluated++
		fallback++
		if rt.evalBP(ibp) {
			hits = append(hits, ibp)
		}
	}
	if fallback > 0 {
		rt.mu.Lock()
		rt.evalCount += uint64(fallback)
		rt.mu.Unlock()
	}
	if evaluated > 0 {
		rt.statEvaluated.Add(1)
	} else {
		rt.statSkipped.Add(1)
	}
	// A hit condition stays hot by construction: hits never set
	// condSkip, so they re-evaluate at every edge until a dependency
	// moves or the user resumes past them.
	return hits
}

// fusedUnpark clears the skip flags of every fused condition whose
// operand closure includes union slot i; called from markSlotDirty.
func (fs *fusedState) fusedUnpark(i int) {
	if fs == nil || i >= len(fs.slotConds) {
		return
	}
	for _, ci := range fs.slotConds[i] {
		if fs.condSkip[ci] {
			fs.condSkip[ci] = false
			fs.parked--
		}
	}
}
