package expr

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/val"
)

// bitsEnv builds a BitsResolver over a fixed set of signals.
func bitsEnv(m map[string]val.Bits) BitsResolver {
	return BitsResolverFunc(func(name string) (val.Bits, error) {
		b, ok := m[name]
		if !ok {
			return val.Bits{}, fmt.Errorf("unknown signal %q", name)
		}
		return b, nil
	})
}

func mustBits(t *testing.T, lit string, width int) val.Bits {
	t.Helper()
	b, err := val.ParseVCD(lit, width)
	if err != nil {
		t.Fatalf("ParseVCD(%q): %v", lit, err)
	}
	return b
}

func evalBitsStr(t *testing.T, src string, env BitsResolver) val.Bits {
	t.Helper()
	n, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	b, err := EvalBits(n, env)
	if err != nil {
		t.Fatalf("EvalBits(%q): %v", src, err)
	}
	return b
}

func TestEvalBitsXPropagation(t *testing.T) {
	x8 := mustBits(t, "1x0z", 8) // 8'b0000_1x0z
	env := bitsEnv(map[string]val.Bits{
		"x8":   x8,
		"k8":   val.FromUint64(9, 8), // matches x8 on every known bit
		"zero": val.FromUint64(0, 4),
		"one":  val.FromUint64(1, 1),
	})
	cases := []struct {
		src  string
		want val.Bits
	}{
		// Arithmetic goes whole-result x on any unknown input.
		{"x8 + 1", val.Unknown(9)},
		{"x8 - k8", val.Unknown(9)},
		{"-x8", val.Unknown(9)},
		// Bitwise is per-bit: known 0 dominates &, known 1 dominates |.
		{"x8 & 0", val.FromUint64(0, 8)},
		{"x8 & 15", mustBits(t, "1x0x", 8)},
		{"x8 | 15", val.FromUint64(15, 8)},
		{"~x8", mustBits(t, "11110x1x", 8)},
		// Equality is three-valued; case equality always resolves.
		{"x8 == k8", val.Unknown(1)},
		{"x8 == 8'hf0", val.FromUint64(0, 1)}, // known high nibble differs
		{"x8 === 8'b1x0z", val.FromUint64(1, 1)},
		{"x8 !== 8'b1x0z", val.FromUint64(0, 1)},
		{"x8 === k8", val.FromUint64(0, 1)},
		// Truthiness: a dominant known bit decides && / || / ?: even
		// when the other side is x.
		{"x8 && one", val.FromUint64(1, 1)},
		{"x8[2] && one", val.Unknown(1)},
		{"x8[2] && zero", val.FromUint64(0, 1)},
		{"x8[2] || one", val.FromUint64(1, 1)},
		{"x8[2] || zero", val.Unknown(1)},
		// Unknown ternary selector keeps only agreeing bits.
		{"x8[2] ? 12 : 12", val.FromUint64(12, 4)},
		{"x8[2] ? 5 : 4", mustBits(t, "10x", 3)},
		// Ordered comparison with any x is unknown.
		{"x8 < k8", val.Unknown(1)},
		{"zero < k8", val.FromUint64(1, 1)},
		// Shifts: x bits ride along; x amounts poison the result.
		{"x8 << 1", mustBits(t, "0001x0z0", 8)},
		{"x8 >> 3", mustBits(t, "00000001", 8)},
		{"k8 << x8[2]", val.Unknown(8)},
	}
	for _, tc := range cases {
		got := evalBitsStr(t, tc.src, env)
		if !got.CaseEq(tc.want) || got.Width != tc.want.Width {
			t.Errorf("%s = %s (width %d), want %s (width %d)",
				tc.src, got, got.Width, tc.want, tc.want.Width)
		}
	}
}

func TestEvalBitsWideValues(t *testing.T) {
	// 160-bit bus with bit 159 and bit 0 set.
	w160 := val.FromWords([]uint64{1, 0, 1 << 31}, 160)
	env := bitsEnv(map[string]val.Bits{"bus": w160})

	if got := evalBitsStr(t, "bus + 1", env); !got.CaseEq(val.FromWords([]uint64{2, 0, 1 << 31}, 160)) {
		t.Fatalf("bus + 1 = %s", got)
	}
	if got := evalBitsStr(t, "bus[159]", env); !got.CaseEq(val.FromUint64(1, 1)) {
		t.Fatalf("bus[159] = %s", got)
	}
	if got := evalBitsStr(t, "bus[158:64]", env); !got.CaseEq(val.FromUint64(0, 95)) {
		t.Fatalf("bus[158:64] = %s", got)
	}
	lit := "160'h8" + strings.Repeat("0", 38) + "1"
	if got := evalBitsStr(t, "bus === "+lit, env); !got.CaseEq(val.FromUint64(1, 1)) {
		t.Fatalf("bus === %s = %s", lit, got)
	}
	if got := evalBitsStr(t, "bus == 1", env); !got.CaseEq(val.FromUint64(0, 1)) {
		t.Fatalf("bus == 1 = %s", got)
	}
	// True >64-bit magnitudes degrade to x for * and / rather than
	// silently truncating.
	if got := evalBitsStr(t, "bus * 2", env); !got.HasX() {
		t.Fatalf("wide multiply should be unknown, got %s", got)
	}
}

func TestSizedLiterals(t *testing.T) {
	env := bitsEnv(nil)
	cases := []struct {
		src  string
		want val.Bits
	}{
		{"16'hdead", val.FromUint64(0xdead, 16)},
		{"16'hde_ad", val.FromUint64(0xdead, 16)},
		{"4'd12", val.FromUint64(12, 4)},
		{"6'o17", val.FromUint64(0o17, 6)},
		{"8'b1010", val.FromUint64(10, 8)},
		{"8'b1x0z", mustBits(t, "1x0z", 8)},
		{"8'hx", val.Unknown(8)}, // x-extends to the declared width
		{"4'hz", mustBits(t, "zzzz", 4)},
		{"12'hx0", mustBits(t, "xxxxxxxx0000", 12)},
	}
	for _, tc := range cases {
		got := evalBitsStr(t, tc.src, env)
		if !got.CaseEq(tc.want) || got.Width != tc.want.Width {
			t.Errorf("%s = %s (width %d), want %s (width %d)",
				tc.src, got, got.Width, tc.want, tc.want.Width)
		}
	}

	// Known sized literals stay on the two-state path at their declared
	// width.
	n := MustParse("16'hdead")
	v, err := n.Eval(nil)
	if err != nil || v.Bits != 0xdead || v.Width != 16 {
		t.Fatalf("two-state 16'hdead = %v, %v", v, err)
	}

	// Four-state literals parse but are rejected by the two-state
	// evaluator and the compiler, forcing the general path.
	n = MustParse("sig === 8'b1x0z")
	if _, err := n.Eval(ResolverFunc(func(string) (eval.Value, error) {
		return eval.Make(0, 8, false), nil
	})); err == nil {
		t.Fatal("two-state Eval of a four-state literal should error")
	}
	if _, err := Compile(n); err == nil {
		t.Fatal("Compile of a four-state literal should error")
	}

	for _, bad := range []string{"8'b2", "99999999'h0", "8'hgg", "0'd0"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

// TestEvalBitsMatchesTwoState is the in-package differential check: on
// fully known ≤64-bit inputs the four-state evaluator must produce
// bit-identical results to the two-state tree-walk, including widths.
func TestEvalBitsMatchesTwoState(t *testing.T) {
	exprs := []string{
		"a + b", "a - b", "a * b", "b / (a | 1)", "b % (a | 1)",
		"a & b", "a | b", "a ^ b", "~a", "-b", "!a",
		"a == b", "a != b", "a === b", "a !== b",
		"a < b", "a <= b", "a > b", "a >= b",
		"a << 3", "a >> 2", "a << b[2:0]",
		"a && b", "a || b", "!a && (b || c)",
		"a ? b : c", "(a & 0xff) == 0x80 ? b + 1 : c - 1",
		"a[7:0] + b[15:8]", "a[31]", "(a + b) * (c & 0xf)",
		"a === 16'hdead", "a[7:0] !== 8'hff",
	}
	rng := rand.New(rand.NewSource(7))
	for _, src := range exprs {
		n := MustParse(src)
		for trial := 0; trial < 50; trial++ {
			vals := map[string]eval.Value{
				"a": eval.Make(rng.Uint64(), 32, false),
				"b": eval.Make(rng.Uint64(), 16, false),
				"c": eval.Make(rng.Uint64(), 64, false),
			}
			want, err := n.Eval(ResolverFunc(func(name string) (eval.Value, error) {
				return vals[name], nil
			}))
			got, gerr := EvalBits(n, BitsResolverFunc(func(name string) (val.Bits, error) {
				return vals[name].ToBits(), nil
			}))
			if (err != nil) != (gerr != nil) {
				t.Fatalf("%s: error mismatch: two-state %v, four-state %v", src, err, gerr)
			}
			if err != nil {
				continue
			}
			if !got.CaseEq(want.ToBits()) || got.Width != want.ToBits().Width {
				t.Fatalf("%s: four-state %s (width %d) != two-state %s (width %d)",
					src, got, got.Width, want, want.Width)
			}
		}
	}
}

// FuzzEvalBitsMatchesCompiled is the evaluator differential: for a
// fuzz-chosen expression that compiles, the compiled program and the
// general four-state evaluator, given the same fully known operands of
// at most 64 bits, agree on value and width, or both fail. The general
// evaluator decides every evaluate request and every failed compiled
// run, so any disagreement is a wrong answer. Operands are unsigned:
// val.Bits carries no signedness, so a signed operand has no general
// counterpart to compare against.
func FuzzEvalBitsMatchesCompiled(f *testing.F) {
	for i, p := range fuzzSeedPairs {
		f.Add(p[0], uint64(2*i+1))
		f.Add(p[1], uint64(2*i+2))
	}
	f.Fuzz(func(t *testing.T, src string, seed uint64) {
		if len(src) > 256 {
			return
		}
		n, err := Parse(src)
		if err != nil {
			return
		}
		p, err := Compile(n)
		if err != nil {
			return
		}
		next := xorshift(seed)
		var m eval.Machine
		for env := 0; env < 2; env++ {
			ops := make([]eval.Value, len(p.Deps))
			byName := map[string]val.Bits{}
			for i, d := range p.Deps {
				ops[i] = fuzzOperand(next, false)
				byName[d] = ops[i].ToBits()
			}
			// Names constant folding dropped from the program are still
			// in the tree the general evaluator walks.
			for _, d := range Names(n) {
				if _, ok := byName[d]; !ok {
					byName[d] = fuzzOperand(next, false).ToBits()
				}
			}
			want, errC := p.Exec(&m, ops)
			got, errG := EvalBits(n, bitsEnv(byName))
			if (errC != nil) != (errG != nil) {
				t.Fatalf("%q over %v: compiled error %v, general error %v", src, byName, errC, errG)
			}
			if errC != nil {
				continue
			}
			if w := want.ToBits(); got.Width != w.Width || !got.CaseEq(w) {
				t.Fatalf("%q over %v: general %s (width %d), compiled %s (width %d)",
					src, byName, got, got.Width, want, want.Width)
			}
		}
	})
}
