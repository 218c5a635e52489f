package core

import (
	"repro/internal/expr"
	"repro/internal/val"
)

// onEdge is the clock-edge callback: the entire Figure 2 scheduling
// loop. The first check is the fast path the paper's overhead argument
// rests on — with no breakpoints inserted and no step pending, the
// callback returns immediately and the simulator pays only the cost of
// the call itself.
func (rt *Runtime) onEdge(time uint64) {
	// Serve any queries debugger sessions queued since the last edge:
	// observers read values mid-run here, with combinational state
	// settled, instead of racing the simulator from their own
	// goroutines (see query.go). The edge counter bumps first so an
	// idle-fallback caller racing this edge knows a live drainer
	// exists and waits instead of running inline.
	rt.edgeSeen.Add(1)
	rt.drainQueries()

	rt.mu.Lock()
	stepping := rt.stepArmed
	reverse := rt.reverseArmed
	hasBPs := len(rt.inserted) > 0
	hasWatches := len(rt.watches) > 0
	handler := rt.handler
	detached := rt.detached
	rt.mu.Unlock()

	if detached || handler == nil {
		return
	}
	if !hasBPs && !stepping && !hasWatches {
		return // fast exit: no breakpoint left to schedule
	}
	if hasWatches {
		if ev := rt.checkWatches(time); ev != nil {
			rt.mu.Lock()
			rt.stopCount++
			rt.mu.Unlock()
			cmd := handler(ev)
			rt.invalidatePrefetch()
			switch cmd {
			case CmdDetach:
				rt.Detach()
				return
			case CmdStep:
				stepping = true
			case CmdReverseStep:
				stepping, reverse = true, true
			}
		}
	}
	if !hasBPs && !stepping {
		return
	}

	start := 0
	if reverse {
		start = len(rt.allGroups) - 1
	}
	rt.schedule(time, start, stepping, reverse, handler)
}

// schedule walks breakpoint groups in the pre-computed order (or its
// reverse), evaluates each group's members, and blocks in the handler
// on hits. Reverse scheduling that falls off the beginning of a cycle
// re-enters the previous cycle when the backend supports SetTime (trace
// replay), giving full reverse debugging.
func (rt *Runtime) schedule(time uint64, start int, stepping, reverse bool, handler Handler) {
	t := time
	i := start
	for {
		if i < 0 || i >= len(rt.allGroups) {
			// Fetch-next-breakpoints returned "done" for this cycle.
			if reverse && i < 0 && t > 0 {
				// Reverse past the cycle boundary: rewind time if the
				// backend can. The per-edge value cache was fetched
				// before the rewind and must not survive it: times
				// alias after SetTime, and serving pre-rewind values at
				// the rewound time would evaluate conditions against
				// the wrong cycle.
				if err := rt.backend.SetTime(t - 1); err == nil {
					rt.invalidatePrefetch()
					t--
					i = len(rt.allGroups) - 1
					continue
				}
			}
			break
		}
		g := rt.allGroups[i]
		// Activity-driven skip: outside stepping, a group with no armed
		// member can never hit, and a group whose last evaluation was a
		// provable miss with all dependency slots clean since
		// (ensurePrefetch maintains the flags) must miss again —
		// skipping it is bit-identical to evaluating it. Stepping
		// always evaluates everything.
		var hits []*insertedBP
		usedFused := false
		if !stepping && rt.deltaOn() {
			rt.ensurePrefetch(t)
			if rt.groupArmed[i] == 0 {
				i = next(i, reverse)
				continue
			}
			// Fused fast path (fused.go): the whole schedule's conditions
			// ran as one program when this edge's cache was refreshed;
			// the walk just consumes per-condition results. Reverse
			// scheduling stays on the per-group path — its mid-walk
			// SetTime rewinds re-run per group anyway, so fusion would
			// re-execute the whole schedule per rewound group.
			if !reverse {
				if fs := rt.fusedReady(t); fs != nil {
					hits = rt.fusedGroupEval(fs, i)
					usedFused = true
				}
			}
			if !usedFused && rt.groupSkip[i] {
				rt.statSkipped.Add(1)
				i = next(i, reverse)
				continue
			}
		}
		if !usedFused {
			hits = rt.evaluateGroup(g, stepping, t)
		}
		if len(hits) == 0 {
			if !usedFused && !stepping && rt.deltaOn() {
				rt.noteGroupMiss(i)
			}
			i = next(i, reverse)
			continue
		}
		// A hit group stays hot: its condition holds and must re-stop
		// at every edge until a dependency moves or the user resumes
		// past it.
		rt.groupSkip[i] = false
		event := rt.buildEvent(g, hits, t, reverse, stepping)
		rt.mu.Lock()
		rt.stopCount++
		rt.mu.Unlock()
		cmd := handler(event)
		// The paused user may have deposited values or changed the
		// breakpoint set; refetch before evaluating further groups.
		rt.invalidatePrefetch()
		switch cmd {
		case CmdDetach:
			rt.Detach()
			rt.setStep(false, false)
			return
		case CmdContinue:
			stepping, reverse = false, false
			i = next(i, false)
		case CmdStep:
			stepping, reverse = true, false
			i = next(i, false)
		case CmdReverseStep:
			stepping, reverse = true, true
			i = next(i, true)
		default:
			stepping, reverse = false, false
			i = next(i, false)
		}
		rt.mu.Lock()
		hasBPs := len(rt.inserted) > 0
		rt.mu.Unlock()
		if !stepping && !hasBPs {
			break
		}
	}
	// Carry stepping state into the next cycle: a forward step that ran
	// off the end of this cycle stops at the first enabled statement of
	// the next; an un-rewindable reverse step stays armed so the user
	// still gets a stop (documented live-simulation limitation).
	rt.setStep(stepping, reverse && stepping)
}

func next(i int, reverse bool) int {
	if reverse {
		return i - 1
	}
	return i + 1
}

func (rt *Runtime) setStep(step, reverse bool) {
	rt.mu.Lock()
	rt.stepArmed = step
	rt.reverseArmed = reverse
	rt.mu.Unlock()
}

// evaluateGroup evaluates all candidate breakpoints of one source
// statement (§3.2 step 2) and returns the members that hit. Members run
// as compiled programs against the per-cycle prefetched value cache, in
// order on the simulation goroutine: each is a few hundred nanoseconds
// of bytecode, less than a hand-off to another goroutine would cost.
func (rt *Runtime) evaluateGroup(g *group, stepping bool, t uint64) []*insertedBP {
	// Refresh the cache (and any pending dependency-union rebuild)
	// BEFORE snapshotting members: a rebuild reassigns every inserted
	// breakpoint's cache slots, so it must never run between selecting
	// a member and evaluating it (a breakpoint removed concurrently by
	// a connection goroutine would otherwise be evaluated with slots
	// indexing the rebuilt, possibly shorter, arrays).
	rt.ensurePrefetch(t)
	// Select members: inserted breakpoints always; when stepping, every
	// potential breakpoint participates.
	rt.mu.Lock()
	members := rt.memberBuf[:0]
	for _, cand := range g.bps {
		if armed, ok := rt.inserted[cand.bp.ID]; ok {
			members = append(members, armed)
		} else if stepping {
			members = append(members, cand)
		}
	}
	rt.memberBuf = members
	rt.evalCount += uint64(len(members))
	rt.mu.Unlock()
	if len(members) == 0 {
		return nil
	}
	rt.statEvaluated.Add(1)
	var hits []*insertedBP
	for _, m := range members {
		if rt.evalBP(m) {
			hits = append(hits, m)
		}
	}
	return hits
}

// evalBP checks one breakpoint: SSA enable condition AND user
// condition, both executed as compiled register programs over operands
// resolved at arm time and prefetched for the cycle. Compiled execution
// gathers operands eagerly, so a dependency that cannot be fetched
// fails it even when the tree-walk would short-circuit past that
// reference; on error the tree-walk reference decides, keeping the two
// paths semantically identical. When the two-state tree-walk also
// fails — an operand carries x/z bits or exceeds 64 bits — the general
// four-state evaluator is the final authority: the breakpoint hits
// only when the condition is definitely true (x is not a hit, matching
// Verilog's `if`).
func (rt *Runtime) evalBP(ibp *insertedBP) bool {
	if rt.generalEval.Load() {
		return rt.evalBPBits(ibp)
	}
	if ibp.enable != nil {
		if ibp.enableProg == nil {
			// Parsed but not compilable (four-state constructs): the
			// general evaluator is the only path.
			if !rt.condTruthBits(ibp, ibp.enable) {
				return false
			}
		} else {
			v, err := rt.execCompiled(ibp.enableProg, ibp.enablePaths, ibp.enableSlots)
			if err != nil {
				v, err = ibp.enable.Eval(ibp.pathResolver(rt))
			}
			if err != nil {
				if !rt.condTruthBits(ibp, ibp.enable) {
					return false
				}
			} else if !v.IsTrue() {
				return false
			}
		}
	}
	if ibp.cond != nil {
		if ibp.condProg == nil {
			if !rt.condTruthBits(ibp, ibp.cond) {
				return false
			}
		} else {
			v, err := rt.execCompiled(ibp.condProg, ibp.condPaths, ibp.condSlots)
			if err != nil {
				v, err = ibp.cond.Eval(ibp.pathResolver(rt))
			}
			if err != nil {
				if !rt.condTruthBits(ibp, ibp.cond) {
					return false
				}
			} else if !v.IsTrue() {
				return false
			}
		}
	}
	return true
}

// condTruthBits evaluates one condition tree with the general
// four-state evaluator and reports whether it is definitely true.
func (rt *Runtime) condTruthBits(ibp *insertedBP, n expr.Node) bool {
	b, err := expr.EvalBits(n, ibp.pathBitsResolver(rt))
	return err == nil && b.Truth() == val.True
}

// evalBPBits is the all-general form of evalBP: both conditions walked
// by the four-state evaluator, hits requiring definite truth. It is
// the SetGeneralEval baseline the compiled pipeline is differentially
// pinned against.
func (rt *Runtime) evalBPBits(ibp *insertedBP) bool {
	if ibp.enable != nil && !rt.condTruthBits(ibp, ibp.enable) {
		return false
	}
	if ibp.cond != nil && !rt.condTruthBits(ibp, ibp.cond) {
		return false
	}
	return true
}
