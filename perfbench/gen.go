package main

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/symtab"
)

// rng is the benchmark's seeded generator (splitmix64). Every input the
// program under test receives — program order, breakpoint sets,
// conditions, command mixes — is drawn from it, so one seed names one
// set of inputs.
type rng struct{ state uint64 }

func newRNG(seed uint64, stream string) *rng {
	r := &rng{state: seed}
	for _, c := range []byte(stream) {
		r.state = r.state*0x100000001B3 ^ uint64(c)
	}
	return r
}

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// bpSpec is one generated arming decision: a breakpoint at one
// statement of one instance with a user condition.
type bpSpec struct {
	File     string
	Line     int
	Instance string
	Cond     string
}

// quietDeps are the core signals the never-firing conditions read: a
// mix of signals that move every cycle (pc, cycle_r) and ones that are
// mostly idle (register operands, decode fields), so activity skipping
// has real work to skip.
var quietDeps = []string{"pc", "instr", "rv1", "rv2", "rd", "rs1", "funct3", "immI", "retired_r", "cycle_r"}

// armSet draws n breakpoints on distinct (line, instance) statements of
// the table. nHit of them sit on always-enabled statements of the first
// core and fire on a fixed cadence: when the core's cycle counter
// reaches their residue modulo period, residues spread evenly from a
// seeded offset, so hits are period/nHit cycles apart for every seed.
// The hit statements sit at the midpoints of nHit equal strata of the
// schedule order, the same for every seed, because the cost of a stop
// depends on how much of the cycle's schedule follows it.
//
// The rest compare core signals against seeded constants in
// 0x7F000000..0x7FFFFFFF — values the kernels' addresses, counters and
// operands do not reach — so they arm the full evaluation path without
// stopping. Their signals and forms are dealt round-robin from a seeded
// offset, so every set reads each signal equally often and only the
// statements and constants vary with the seed.
func armSet(r *rng, tab *symtab.Table, n, nHit, period int) []bpSpec {
	type stmt struct {
		file, inst string
		line       int
	}
	key := func(bp symtab.Breakpoint) stmt { return stmt{bp.Filename, bp.InstanceName, bp.Line} }
	seen := map[stmt]bool{}
	var cands, always []symtab.Breakpoint
	hitInst := tab.Top() + ".core0"
	for _, bp := range tab.AllBreakpoints() {
		if bp.InstanceName == tab.Top() || seen[key(bp)] {
			continue
		}
		seen[key(bp)] = true
		cands = append(cands, bp)
		if bp.Enable == "" && bp.InstanceName == hitInst {
			always = append(always, bp)
		}
	}
	sort.SliceStable(always, func(i, j int) bool {
		if always[i].Filename != always[j].Filename {
			return always[i].Filename < always[j].Filename
		}
		return always[i].Order < always[j].Order
	})
	out := make([]bpSpec, 0, n)
	taken := map[stmt]bool{}
	offset := r.intn(period)
	for h := 0; h < nHit && h < n; h++ {
		bp := always[(2*h+1)*len(always)/(2*nHit)]
		taken[key(bp)] = true
		out = append(out, bpSpec{bp.Filename, bp.Line, bp.InstanceName,
			fmt.Sprintf("cycle_r %% %d == %d", period, (offset+h*period/nHit)%period)})
	}
	depOff := r.intn(len(quietDeps))
	for i, pick := 0, r.perm(len(cands)); len(out) < n && i < len(pick); i++ {
		bp := cands[pick[i]]
		if taken[key(bp)] {
			continue
		}
		q := len(out) - nHit
		out = append(out, bpSpec{bp.Filename, bp.Line, bp.InstanceName, quietCond(r, depOff+q, q%3)})
	}
	return out
}

// quietCond builds a never-firing condition reading quietDeps[i] (and
// a second signal) in one of three forms.
func quietCond(r *rng, i, form int) string {
	a := quietDeps[i%len(quietDeps)]
	b := quietDeps[(2*i+1)%len(quietDeps)]
	k := 0x7F000000 + r.intn(0xFFFFFF)
	switch form {
	case 0:
		return fmt.Sprintf("%s == %d", a, k)
	case 1:
		return fmt.Sprintf("%s + %s == %d", a, b, k)
	}
	return fmt.Sprintf("(%s == %d) && (%s > 3)", a, k, b)
}

// armAll arms specs on a runtime and returns the armed breakpoint
// count.
func armAll(rt *core.Runtime, specs []bpSpec) (int, error) {
	armed := 0
	for _, s := range specs {
		ids, err := rt.AddBreakpointInstance(s.File, s.Line, s.Instance, s.Cond)
		if err != nil {
			return armed, fmt.Errorf("arm %s:%d %s if %s: %w", s.File, s.Line, s.Instance, s.Cond, err)
		}
		armed += len(ids)
	}
	return armed, nil
}
