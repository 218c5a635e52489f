package expr

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/eval"
)

// fuseExec runs a fused schedule against per-slot values and returns
// the per-condition results.
func fuseExec(fs *FusedSchedule, slotVals []eval.Value) (results []eval.Value, ok []bool) {
	operands := make([]eval.Value, len(fs.Slots))
	opsOK := make([]bool, len(fs.Slots))
	for i, s := range fs.Slots {
		operands[i] = slotVals[s]
		opsOK[i] = true
	}
	shOK := make([]bool, fs.Prog.NumShared)
	results = make([]eval.Value, len(fs.Prog.Conds))
	ok = make([]bool, len(fs.Prog.Conds))
	var m eval.FusedMachine
	m.ExecShared(&fs.Prog, operands, opsOK, shOK)
	m.ExecConds(&fs.Prog, operands, opsOK, shOK, nil, results, ok)
	return results, ok
}

// refCond evaluates one fused condition by the exact per-condition
// compiled path: enable, then (only when the enable holds) the user
// condition. The bool reports the combined truth value.
func refCond(c FusedCondition, slotVals []eval.Value, m *eval.Machine) (bool, error) {
	gather := func(p *Program, slots []int) []eval.Value {
		ops := make([]eval.Value, len(p.Deps))
		for i := range ops {
			ops[i] = slotVals[slots[i]]
		}
		return ops
	}
	if c.Enable != nil {
		v, err := c.Enable.Exec(m, gather(c.Enable, c.EnableSlots))
		if err != nil {
			return false, err
		}
		if !v.IsTrue() {
			return false, nil
		}
	}
	if c.Cond != nil {
		v, err := c.Cond.Exec(m, gather(c.Cond, c.CondSlots))
		if err != nil {
			return false, err
		}
		return v.IsTrue(), nil
	}
	return true, nil
}

// compileCond builds a FusedCondition from optional enable/cond ASTs
// and a per-condition name → global slot mapping.
func compileCond(t *testing.T, enable, cond Node, slotOf map[string]int) FusedCondition {
	t.Helper()
	var fc FusedCondition
	mk := func(n Node) (*Program, []int) {
		p, err := Compile(n)
		if err != nil {
			t.Fatalf("compile %s: %v", n, err)
		}
		slots := make([]int, len(p.Deps))
		for i, d := range p.Deps {
			slots[i] = slotOf[d]
		}
		return p, slots
	}
	if enable != nil {
		fc.Enable, fc.EnableSlots = mk(enable)
	}
	if cond != nil {
		fc.Cond, fc.CondSlots = mk(cond)
	}
	return fc
}

// TestFuseDifferential pins the fuser's parity contract against the
// per-condition compiled path over random condition sets: a condition
// the fused program reports sound (ok) must match the reference truth
// value exactly, and a condition whose reference evaluation errors must
// never be reported sound — poisoning may be conservative (a hoisted
// subexpression can fault where the original would have short-circuited
// past it) but must not be optimistic.
func TestFuseDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(20260808))
	names := []string{"a", "b", "c", "d"}
	const numSlots = 6
	sharedTotal := 0
	for trial := 0; trial < 300; trial++ {
		k := 1 + r.Intn(10)
		conds := make([]FusedCondition, k)
		for i := range conds {
			slotOf := map[string]int{}
			for _, n := range names {
				// Small slot pool so structurally equal conditions often
				// land on the same slots and CSE actually fires.
				slotOf[n] = r.Intn(numSlots)
			}
			var enable, cond Node
			if r.Intn(4) != 0 {
				enable = randNode(r, names, 3)
			}
			if r.Intn(2) == 0 {
				cond = randNode(r, names, 3)
			}
			conds[i] = compileCond(t, enable, cond, slotOf)
		}
		fs, err := Fuse(conds)
		if err != nil {
			t.Fatalf("trial %d: fuse: %v", trial, err)
		}
		sharedTotal += fs.Stats.SharedSegs
		for env := 0; env < 3; env++ {
			slotVals := make([]eval.Value, numSlots)
			for s := range slotVals {
				slotVals[s] = eval.Make(r.Uint64(), 1+r.Intn(64), r.Intn(2) == 0)
			}
			results, ok := fuseExec(fs, slotVals)
			var m eval.Machine
			for ci := range conds {
				want, errW := refCond(conds[ci], slotVals, &m)
				if errW != nil {
					if ok[ci] {
						t.Fatalf("trial %d cond %d: reference errs (%v) but fused reports sound %v",
							trial, ci, errW, results[ci])
					}
					continue
				}
				if ok[ci] && results[ci].IsTrue() != want {
					t.Fatalf("trial %d cond %d: fused=%v want=%v", trial, ci, results[ci].IsTrue(), want)
				}
			}
		}
	}
	if sharedTotal == 0 {
		t.Fatal("no shared segments hoisted across any trial; CSE never exercised")
	}
}

// fuzzSeedPairs seed the expression fuzzers: condition pairs covering
// hoistable common enables, guarded-only sharing, ternaries, slices,
// division, sized literals and case equality. Two-state sized forms
// compile (and fuse); four-state and >64-bit literals bail at Compile,
// seeding the parser side of the corpus.
var fuzzSeedPairs = [][2]string{
	{"(x + y) > 3", "(x + y) < 9"},
	{"a == 0 && (b << a) > 1", "a == 1 && (b << a) > 1"},
	{"en ? cnt == 5 : cnt == 9", "en && cnt[3:0] != 2"},
	{"a % b == 0", "a / b > 1"},
	{"x === 16'hdead", "x !== 16'hbeef && x > 0"},
	{"a === 8'b1x0z", "a == 130'h3deadbeefcafebabe0123456789abcdef0"},
}

// xorshift is the fuzzers' operand generator, seeded by the fuzz input.
func xorshift(seed uint64) func() uint64 {
	return func() uint64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed
	}
}

// fuzzOperand draws one operand: any value, width 1–64, signed half of
// the time when signedOK.
func fuzzOperand(next func() uint64, signedOK bool) eval.Value {
	return eval.Make(next(), 1+int(next()%64), next()%2 == 0 && signedOK)
}

// FuzzFuse is the coverage-guided version of TestFuseDifferential: two
// fuzz-chosen condition sources (shared slot pool, so common structure
// fuses) against the per-condition reference.
func FuzzFuse(f *testing.F) {
	for i, p := range fuzzSeedPairs {
		f.Add(p[0], p[1], uint64(i+1))
	}
	f.Fuzz(func(t *testing.T, src1, src2 string, seed uint64) {
		if len(src1) > 256 || len(src2) > 256 {
			return
		}
		const numSlots = 4
		var conds []FusedCondition
		slotOf := map[string]int{}
		for _, src := range []string{src1, src2} {
			n, err := Parse(src)
			if err != nil {
				return
			}
			p, err := Compile(n)
			if err != nil {
				return
			}
			slots := make([]int, len(p.Deps))
			for i, d := range p.Deps {
				if _, seen := slotOf[d]; !seen {
					slotOf[d] = len(slotOf) % numSlots
				}
				slots[i] = slotOf[d]
			}
			conds = append(conds, FusedCondition{Enable: p, EnableSlots: slots})
		}
		fs, err := Fuse(conds)
		if err != nil {
			t.Fatalf("fuse: %v", err)
		}
		next := xorshift(seed)
		for env := 0; env < 2; env++ {
			slotVals := make([]eval.Value, numSlots)
			for s := range slotVals {
				slotVals[s] = fuzzOperand(next, true)
			}
			results, ok := fuseExec(fs, slotVals)
			var m eval.Machine
			for ci := range conds {
				want, errW := refCond(conds[ci], slotVals, &m)
				if errW != nil {
					if ok[ci] {
						t.Fatalf("cond %d (%q/%q): reference errs (%v) but fused sound %v",
							ci, src1, src2, errW, results[ci])
					}
					continue
				}
				if ok[ci] && results[ci].IsTrue() != want {
					t.Fatalf("cond %d (%q/%q): fused=%v want=%v",
						ci, src1, src2, results[ci].IsTrue(), want)
				}
			}
		}
	})
}

// TestFuseCSE checks the sharing rules directly: identical structure
// over identical slots is hoisted once and read everywhere, while
// sibling instances (same structure, different slots) share nothing.
func TestFuseCSE(t *testing.T) {
	slotsA := map[string]int{"x": 0, "y": 1}
	enable := MustParse("(x + y) > 3")
	cond := MustParse("(x + y) < 9")
	same := []FusedCondition{
		compileCond(t, enable, nil, slotsA),
		compileCond(t, enable, cond, slotsA),
	}
	fs, err := Fuse(same)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Stats.SharedSegs == 0 || fs.Stats.SharedReads < 2 {
		t.Fatalf("same-slot conditions should share: %+v", fs.Stats)
	}
	if fs.Stats.Operands != 2 {
		t.Fatalf("operand table should dedup by slot: %+v", fs.Stats)
	}
	slotVals := []eval.Value{eval.Make(2, 8, false), eval.Make(5, 8, false)}
	results, ok := fuseExec(fs, slotVals)
	// x+y = 7: enable true for both; second condition also wants < 9.
	if !ok[0] || !ok[1] || !results[0].IsTrue() || !results[1].IsTrue() {
		t.Fatalf("results = %v ok = %v", results, ok)
	}

	siblings := []FusedCondition{
		compileCond(t, enable, nil, map[string]int{"x": 0, "y": 1}),
		compileCond(t, enable, nil, map[string]int{"x": 2, "y": 3}),
	}
	fs2, err := Fuse(siblings)
	if err != nil {
		t.Fatal(err)
	}
	if fs2.Stats.SharedSegs != 0 {
		t.Fatalf("sibling instances over different slots must not share: %+v", fs2.Stats)
	}
}

// TestFuseGuardedNotHoisted checks the short-circuit safety rule: a
// subexpression that only ever occurs behind a guard (&&/|| right side,
// ternary arm) never registers a CSE candidate, so two conditions whose
// only common structure is guarded share nothing. (A twice-unguarded
// WHOLE condition may legitimately be hoisted — its internal
// short-circuit jumps travel with it into the prelude segment.)
func TestFuseGuardedNotHoisted(t *testing.T) {
	slots := map[string]int{"a": 0, "b": 1}
	// (b << a) > 1 appears in both conditions but only on && right
	// sides, and the unguarded left sides differ — nothing may be
	// shared.
	conds := []FusedCondition{
		compileCond(t, MustParse("a == 0 && (b << a) > 1"), nil, slots),
		compileCond(t, MustParse("a == 1 && (b << a) > 1"), nil, slots),
	}
	fs, err := Fuse(conds)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Stats.SharedSegs != 0 {
		t.Fatalf("guarded-only common structure was hoisted: %+v", fs.Stats)
	}
	slotVals := []eval.Value{eval.Make(0, 8, false), eval.Make(3, 8, false)}
	results, ok := fuseExec(fs, slotVals)
	for ci := range conds {
		var m eval.Machine
		want, errW := refCond(conds[ci], slotVals, &m)
		if errW != nil {
			t.Fatalf("cond %d: unexpected reference error %v", ci, errW)
		}
		if !ok[ci] || results[ci].IsTrue() != want {
			t.Fatalf("cond %d: fused=(%v, ok=%v) want=%v", ci, results[ci].IsTrue(), ok[ci], want)
		}
	}
}

// TestFusePoisonIsolation checks per-segment error isolation. Compiled
// expr primitives cannot fault at run time (division by zero yields
// zero, dynamic shifts cap their width), so the poison source is the
// one the scheduler actually sees: a failed operand fetch. A condition
// reading the failed operand — directly or through a shared segment —
// reports unsound; unrelated conditions stay sound.
func TestFusePoisonIsolation(t *testing.T) {
	shared := MustParse("(a + b) > 3") // hoisted: unguarded in two conditions
	conds := []FusedCondition{
		compileCond(t, shared, nil, map[string]int{"a": 0, "b": 1}),
		compileCond(t, shared, MustParse("b == 5"), map[string]int{"a": 0, "b": 1}),
		compileCond(t, MustParse("c == 9"), nil, map[string]int{"c": 2}),
	}
	fs, err := Fuse(conds)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Stats.SharedSegs == 0 {
		t.Fatalf("expected the common enable to be hoisted: %+v", fs.Stats)
	}
	slotVals := []eval.Value{eval.Make(2, 8, false), eval.Make(5, 8, false), eval.Make(9, 8, false)}
	operands := make([]eval.Value, len(fs.Slots))
	opsOK := make([]bool, len(fs.Slots))
	for i, s := range fs.Slots {
		operands[i] = slotVals[s]
		opsOK[i] = s != 0 // slot 0 ("a") failed to fetch
	}
	shOK := make([]bool, fs.Prog.NumShared)
	results := make([]eval.Value, len(fs.Prog.Conds))
	ok := make([]bool, len(fs.Prog.Conds))
	var m eval.FusedMachine
	m.ExecShared(&fs.Prog, operands, opsOK, shOK)
	m.ExecConds(&fs.Prog, operands, opsOK, shOK, nil, results, ok)
	if ok[0] || ok[1] {
		t.Fatalf("conditions reading the failed operand must be poisoned: ok=%v", ok)
	}
	if !ok[2] || !results[2].IsTrue() {
		t.Fatalf("unrelated condition poisoned: ok=%v v=%v", ok[2], results[2])
	}
}

// TestFusedExecZeroAllocs pins the fused hot loop's allocation-free
// property, matching TestExecZeroAllocs for the per-condition machine.
func TestFusedExecZeroAllocs(t *testing.T) {
	slots := map[string]int{"a": 0, "b": 1, "c": 2}
	enable := MustParse("(a + b) % 7 == 3")
	conds := []FusedCondition{
		compileCond(t, enable, MustParse("c > 2"), slots),
		compileCond(t, enable, MustParse("c < 100"), slots),
		compileCond(t, MustParse("(a + b) % 7 != 3"), nil, slots),
	}
	fs, err := Fuse(conds)
	if err != nil {
		t.Fatal(err)
	}
	operands := make([]eval.Value, len(fs.Slots))
	opsOK := make([]bool, len(fs.Slots))
	slotVals := []eval.Value{eval.Make(5, 16, false), eval.Make(12, 16, false), eval.Make(9, 16, false)}
	for i, s := range fs.Slots {
		operands[i], opsOK[i] = slotVals[s], true
	}
	shOK := make([]bool, fs.Prog.NumShared)
	results := make([]eval.Value, len(fs.Prog.Conds))
	ok := make([]bool, len(fs.Prog.Conds))
	var m eval.FusedMachine
	skip := make([]uint64, (len(fs.Prog.Conds)+63)/64)
	allocs := testing.AllocsPerRun(100, func() {
		m.ExecShared(&fs.Prog, operands, opsOK, shOK)
		m.ExecConds(&fs.Prog, operands, opsOK, shOK, skip, results, ok)
	})
	if allocs != 0 {
		t.Fatalf("fused exec allocates %.1f objects per run, want 0", allocs)
	}
}

// TestFuseRegisterFileLimit pins the fused schedule's size limit:
// operand indices are uint16, so a condition set with 1<<16 distinct
// operands is rejected with the register-file error (the scheduler then
// falls back to per-group evaluation), and the same set minus one
// condition still fuses with every operand distinct.
func TestFuseRegisterFileLimit(t *testing.T) {
	p, err := Compile(MustParse("x != 0"))
	if err != nil {
		t.Fatal(err)
	}
	conds := make([]FusedCondition, 1<<16)
	for i := range conds {
		conds[i] = FusedCondition{Cond: p, CondSlots: []int{i}}
	}
	if _, err := Fuse(conds); err == nil || !strings.Contains(err.Error(), "exceeds register file") {
		t.Fatalf("Fuse(%d distinct operands) err = %v, want the register-file rejection", len(conds), err)
	}
	fs, err := Fuse(conds[:len(conds)-1])
	if err != nil {
		t.Fatalf("Fuse(%d distinct operands): %v", len(conds)-1, err)
	}
	if fs.Stats.Operands != len(conds)-1 || fs.Slots[len(fs.Slots)-1] != len(conds)-2 {
		t.Fatalf("operand table: %d operands, last slot %d", fs.Stats.Operands, fs.Slots[len(fs.Slots)-1])
	}
}
