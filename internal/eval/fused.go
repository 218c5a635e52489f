package eval

// This file implements the execution half of whole-schedule fused
// condition compilation: every armed breakpoint/watch condition of a
// debug session compiled into ONE register program (a MultiProg), run
// once per clock edge instead of once per condition group. The fuser
// (internal/expr) performs cross-condition CSE — subexpressions shared
// between conditions (same structure over the same operand slots) are
// hoisted into shared prelude segments computed once — and the
// scheduler then runs every per-condition segment on one machine.
//
// Error isolation is per segment: the segments of a fused program share
// one register file but are otherwise independent, so an evaluation
// error (a width-overflow prim, a failed operand read) poisons only the
// segment it occurs in plus the conditions that read the poisoned
// shared register — those conditions report !ok and the scheduler falls
// back to the exact per-condition path, keeping fused scheduling
// bit-identical to per-condition evaluation.

// Segment is one independently executable slice of a fused program:
// Code[Start:End) computes one value into the Result register. Ops
// lists the operand slots the segment reads directly (ISig), Deps the
// shared-segment indexes it reads (IMov from a register below
// NumShared); both are the executor's poisoning inputs — a segment
// whose operand failed to fetch or whose shared dependency is poisoned
// must not run.
type Segment struct {
	Start, End int
	Result     uint16
	Ops        []uint16
	Deps       []uint16
}

// MultiProg is a fused multi-condition program. Registers
// [0, NumShared) hold the results of the shared (CSE) segments, in
// segment order — Shared[i] writes register i; the remaining registers
// are per-segment scratch. Shared segments must be dependency-ordered:
// a segment may only read shared registers of earlier segments.
type MultiProg struct {
	Code        []Instr
	NumRegs     int
	NumShared   int
	NumOperands int
	// Shared are the CSE prelude segments, run once per edge before any
	// condition executes.
	Shared []Segment
	// Conds are the per-condition segments; Conds[i] computes condition
	// i's value from operands and the prelude's shared registers.
	Conds []Segment
}

// FusedMachine executes fused programs. Like Machine it owns a reusable
// register file, so steady-state execution allocates nothing; the
// prelude's shared values live in that register file from ExecShared
// until the conditions read them in ExecConds. It is not safe for
// concurrent use.
type FusedMachine struct {
	regs []Value
	args [2]Value
}

func (m *FusedMachine) ensure(p *MultiProg) []Value {
	if cap(m.regs) < p.NumRegs {
		m.regs = make([]Value, p.NumRegs)
	}
	return m.regs[:p.NumRegs]
}

// segOK reports whether a segment's inputs are all sound: every operand
// it reads fetched successfully and every shared register it reads was
// computed by an unpoisoned segment.
func segOK(seg *Segment, opsOK, sharedOK []bool) bool {
	for _, o := range seg.Ops {
		if !opsOK[o] {
			return false
		}
	}
	for _, d := range seg.Deps {
		if !sharedOK[d] {
			return false
		}
	}
	return true
}

// ExecShared runs the shared prelude segments in order, leaving each
// segment's value in the machine's shared register and its soundness in
// sharedOK (at least NumShared long). A poisoned segment — failed
// operand, failed dependency, or an execution error — leaves sharedOK
// false and later segments reading it are poisoned transitively;
// independent segments still run. Call once per edge before ExecConds.
func (m *FusedMachine) ExecShared(p *MultiProg, operands []Value, opsOK []bool, sharedOK []bool) {
	regs := m.ensure(p)
	for i := range p.Shared {
		seg := &p.Shared[i]
		if !segOK(seg, opsOK, sharedOK) {
			sharedOK[i] = false
			continue
		}
		if err := runCode(p.Code, seg.Start, seg.End, regs, operands, &m.args); err != nil {
			sharedOK[i] = false
			continue
		}
		sharedOK[i] = true
	}
}

// ExecConds runs every condition segment, writing results[i] and
// resultOK[i] for each condition i. It reads the shared registers the
// same machine's ExecShared left behind; sharedOK comes from that call.
// skip is an optional packed bitmap over condition ids (bit i set =
// condition i is provably unchanged since its last miss): skipped
// conditions are not executed and their result entries are left
// untouched — the scheduler's own skip state decides what a masked
// condition means. A condition with a failed operand, a poisoned shared
// dependency, or an execution error reports resultOK false; the caller
// must then evaluate it by the exact per-condition path.
func (m *FusedMachine) ExecConds(p *MultiProg, operands []Value, opsOK []bool, sharedOK []bool, skip []uint64, results []Value, resultOK []bool) {
	regs := m.ensure(p)
	for ci := range p.Conds {
		if skip != nil && skip[ci>>6]&(1<<(uint(ci)&63)) != 0 {
			continue
		}
		seg := &p.Conds[ci]
		if !segOK(seg, opsOK, sharedOK) {
			resultOK[ci] = false
			continue
		}
		if err := runCode(p.Code, seg.Start, seg.End, regs, operands, &m.args); err != nil {
			resultOK[ci] = false
			continue
		}
		results[ci] = regs[seg.Result]
		resultOK[ci] = true
	}
}
