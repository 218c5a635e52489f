package vcd

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/generator"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/rtl"
	"repro/internal/sim"
	"repro/internal/val"
)

func buildAndSim(t *testing.T) *sim.Simulator {
	t.Helper()
	c := generator.NewCircuit("Counter")
	m := c.NewModule("Counter")
	en := m.Input("en", ir.UIntType(1))
	out := m.Output("out", ir.UIntType(8))
	count := m.RegInit("count", ir.UIntType(8), m.Lit(0, 8))
	m.When(en, func() {
		count.Set(count.AddMod(m.Lit(1, 8)))
	})
	out.Set(count)
	comp, err := passes.Compile(c.MustBuild(), false)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := rtl.Elaborate(comp.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	return sim.New(nl)
}

func recordTrace(t *testing.T) *bytes.Buffer {
	t.Helper()
	s := buildAndSim(t)
	var buf bytes.Buffer
	rec := NewRecorder(s, &buf)
	s.Reset("Counter.reset", 1)
	s.Poke("Counter.en", 1)
	s.Run(10)
	if err := rec.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return &buf
}

func TestRecorderHeader(t *testing.T) {
	buf := recordTrace(t)
	text := buf.String()
	for _, want := range []string{
		"$timescale 1ns $end",
		"$scope module Counter $end",
		"$enddefinitions $end",
		"$var wire 8 ",
		"$var wire 1 ",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in VCD:\n%s", want, text[:400])
		}
	}
}

// TestTwoRecordersIdentical pins sim.OnChange's baseline report: a
// second recorder on the same simulator must receive the initial
// values too, so both traces are byte-identical.
func TestTwoRecordersIdentical(t *testing.T) {
	s := buildAndSim(t)
	var a, b bytes.Buffer
	ra, rb := NewRecorder(s, &a), NewRecorder(s, &b)
	s.Reset("Counter.reset", 1)
	s.Poke("Counter.en", 1)
	s.Run(10)
	if err := errors.Join(ra.Flush(), rb.Flush()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("second recorder diverged:\n--- first\n%s\n--- second\n%s", a.String(), b.String())
	}
}

func TestRoundTrip(t *testing.T) {
	buf := recordTrace(t)
	tr, err := ParseStore(buf, StoreOptions{})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ts, ok := tr.Signal("Counter.count")
	if !ok {
		t.Fatalf("count not in trace; have %v", tr.SignalNames())
	}
	if ts.Width != 8 {
		t.Fatalf("count width = %d", ts.Width)
	}
	// After 1 reset cycle + enable, count at time 1+k is k (commits at
	// end of each enabled cycle).
	if got := ts.ValueAt(tr.MaxTime); got == 0 {
		t.Fatalf("final count = %d, want nonzero", got)
	}
	// Monotone counting: value at t+1 >= value at t for our run.
	var prev uint64
	for tm := uint64(0); tm <= tr.MaxTime; tm++ {
		v := ts.ValueAt(tm)
		if v < prev {
			t.Fatalf("count decreased: %d -> %d at t=%d", prev, v, tm)
		}
		prev = v
	}
	if tr.Hierarchy == nil || tr.Hierarchy.Name != "Counter" {
		t.Fatalf("hierarchy = %+v", tr.Hierarchy)
	}
}

func TestValueAtBeforeFirstChange(t *testing.T) {
	src := `$scope module top $end
$var wire 4 ! x $end
$var wire 4 " empty $end
$upscope $end
$enddefinitions $end
#5
b11 !
#10
b111 !
`
	tr, err := ParseStore(strings.NewReader(src), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if empty, _ := tr.Signal("top.empty"); empty.ValueAt(100) != 0 {
		t.Fatal("empty timeline not zero")
	}
	ts, _ := tr.Signal("top.x")
	cases := []struct{ t, want uint64 }{{0, 0}, {4, 0}, {5, 3}, {9, 3}, {10, 7}, {100, 7}}
	for _, c := range cases {
		if got := ts.ValueAt(c.t); got != c.want {
			t.Errorf("ValueAt(%d) = %d, want %d", c.t, got, c.want)
		}
	}
	if ts.NumChanges() != 2 {
		t.Fatalf("NumChanges = %d", ts.NumChanges())
	}
}

func TestParseHandlesXZStates(t *testing.T) {
	src := `$scope module top $end
$var wire 4 ! sig $end
$upscope $end
$enddefinitions $end
#0
bx0z1 !
#1
b1010 !
`
	tr, err := ParseStore(strings.NewReader(src), StoreOptions{})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ts, _ := tr.Signal("top.sig")
	// Full four-state round trip: x and z survive the parse verbatim.
	if got := ts.BitsAt(0).String(); got != "4'bx0z1" {
		t.Fatalf("four-state value at 0 = %s, want 4'bx0z1", got)
	}
	if !ts.BitsAt(0).HasX() {
		t.Fatal("x/z bits lost")
	}
	if ts.ValueAt(1) != 0b1010 {
		t.Fatalf("value at 1 = %b", ts.ValueAt(1))
	}
	if b := ts.BitsAt(1); b.HasX() {
		t.Fatalf("known value at 1 reports unknown bits: %s", b.String())
	}
	if tr.Stats.XZChanges != 1 {
		t.Fatalf("Stats.XZChanges = %d, want 1", tr.Stats.XZChanges)
	}
}

func TestParseScalarChanges(t *testing.T) {
	src := `$scope module top $end
$var wire 1 ! clk $end
$upscope $end
$enddefinitions $end
#0
0!
#1
1!
#2
0!
`
	tr, err := ParseStore(strings.NewReader(src), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := tr.Signal("top.clk")
	if ts.ValueAt(0) != 0 || ts.ValueAt(1) != 1 || ts.ValueAt(2) != 0 {
		t.Fatal("scalar timeline wrong")
	}
	if tr.MaxTime != 2 {
		t.Fatalf("MaxTime = %d", tr.MaxTime)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"$scope module\n",          // malformed scope
		"$var wire x ! sig $end\n", // bad width
		"$enddefinitions $end\n#zz\n",
		"$scope module t $end\n$var wire 1 ! s $end\n$enddefinitions $end\n#0\nbxy !\n",
	}
	for _, src := range bad {
		if _, err := ParseStore(strings.NewReader(src), StoreOptions{}); err == nil {
			t.Errorf("accepted malformed VCD %q", src)
		}
	}
}

// TestTimeRegressionRejected pins the scanVCD timestamp contract: a
// regressed #time marker must fail the parse with a positioned error,
// not flow into ParseStore where the time-delta encoding would
// underflow and silently corrupt the block record stream.
func TestTimeRegressionRejected(t *testing.T) {
	src := `$scope module top $end
$var wire 1 ! clk $end
$upscope $end
$enddefinitions $end
#0
1!
#5
0!
#3
1!
`
	_, err := ParseStore(strings.NewReader(src), StoreOptions{BlockSize: 4})
	if err == nil {
		t.Fatal("ParseStore accepted a regressed timestamp")
	}
	// The error must point at the offending line (line 9: "#3").
	if !strings.Contains(err.Error(), "line 9") || !strings.Contains(err.Error(), "backwards") {
		t.Fatalf("unpositioned regression error: %v", err)
	}
	// Equal timestamps are legal (repeated #t markers appear in real
	// dumps) and must still parse.
	ok := strings.Replace(src, "#3", "#5", 1)
	if _, err := ParseStore(strings.NewReader(ok), StoreOptions{BlockSize: 4}); err != nil {
		t.Fatalf("repeated timestamp rejected: %v", err)
	}
}

// TestWideVectorFullWidth pins the four-state wide-bus semantics: a
// vector change wider than 64 bits is stored at full width (no masking)
// and reads back bit-exact through BitsAt, while the legacy two-state
// ValueAt view still exposes its low 64 bits.
func TestWideVectorFullWidth(t *testing.T) {
	// 100-bit vector: 36 high bits set, low 64 bits a known pattern.
	high := strings.Repeat("1", 36)
	low := "1010" + strings.Repeat("0", 56) + "1101"
	src := `$scope module top $end
$var wire 100 ! bus $end
$var wire 1 " clk $end
$upscope $end
$enddefinitions $end
#0
b` + high + low + ` !
0"
#1
b101 !
`
	want, err := strconv.ParseUint(low, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	wantBits, err := val.ParseVCD(high+low, 100)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ParseStore(strings.NewReader(src), StoreOptions{})
	if err != nil {
		t.Fatalf("wide vector aborted store parse: %v", err)
	}
	ss, _ := st.Signal("top.bus")
	if got := ss.ValueAt(0); got != want {
		t.Fatalf("store wide vector low bits = %#x, want %#x", got, want)
	}
	if got := ss.BitsAt(0); !got.CaseEq(wantBits) {
		t.Fatalf("store wide vector = %s, want %s", got.String(), wantBits.String())
	}
	if got := ss.ValueAt(1); got != 0b101 {
		t.Fatalf("narrow follow-up = %#x", got)
	}
	if st.Stats.XZChanges != 0 || st.Stats.MaxWidth != 100 {
		t.Fatalf("store Stats = %+v, want XZChanges 0, MaxWidth 100", st.Stats)
	}
	// And through the disk round trip, both lazily and materialized.
	disk := writeOpen(t, st, OpenOptions{})
	ds, _ := disk.Signal("top.bus")
	if got := ds.BitsAt(0); !got.CaseEq(wantBits) {
		t.Fatalf("disk wide vector = %s, want %s", got.String(), wantBits.String())
	}
	disk.Materialize("top.bus")
	if got := ds.BitsAt(0); !got.CaseEq(wantBits) {
		t.Fatalf("materialized disk wide vector = %s, want %s", got.String(), wantBits.String())
	}
}

// TestVeryLongLines pins the scanner buffer fix: a single change line
// for a multi-megabit bus blows bufio.Scanner's default 64 KiB token
// cap and used to kill the whole trace.
func TestVeryLongLines(t *testing.T) {
	const wideBits = 2 << 20 // one 2 Mib vector change = a ~2 MiB line
	var sb strings.Builder
	sb.WriteString("$scope module top $end\n")
	fmt.Fprintf(&sb, "$var wire %d ! bus $end\n", wideBits)
	sb.WriteString("$upscope $end\n$enddefinitions $end\n#0\nb")
	sb.WriteString(strings.Repeat("0", wideBits-64))
	sb.WriteString("1" + strings.Repeat("0", 62) + "1")
	sb.WriteString(" !\n#1\nb11 !\n")
	tr, err := ParseStore(strings.NewReader(sb.String()), StoreOptions{})
	if err != nil {
		t.Fatalf("long line killed parse: %v", err)
	}
	ts, _ := tr.Signal("top.bus")
	if got := ts.ValueAt(0); got != 1<<63|1 {
		t.Fatalf("long-line value = %#x", got)
	}
	// The value keeps its full declared width, with the bits above the
	// low word known zero.
	if b := ts.BitsAt(0); b.Width != wideBits || b.HasX() {
		t.Fatalf("wide value lost width: %d bits, hasX=%v", b.Width, b.HasX())
	}
	if got := ts.ValueAt(1); got != 0b11 {
		t.Fatalf("follow-up value = %#x", got)
	}
	if tr.Stats.MaxWidth != wideBits {
		t.Fatalf("Stats.MaxWidth = %d, want %d", tr.Stats.MaxWidth, wideBits)
	}
}

func TestIDCode(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		id := idCode(i)
		if seen[id] {
			t.Fatalf("duplicate id %q at %d", id, i)
		}
		seen[id] = true
		for _, ch := range id {
			if ch < '!' || ch > '~' {
				t.Fatalf("non-printable id char %q", id)
			}
		}
	}
}
