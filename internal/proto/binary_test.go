package proto

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// binNormalize round-trips an event through JSON so both sides of a
// binary round-trip comparison share the same nil-vs-empty slice
// conventions (the binary decoder, like the JSON one, yields nil for
// empty lists).
func binNormalize(t *testing.T, ev *Event) *Event {
	t.Helper()
	raw, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	var out Event
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Stop != nil {
		canonStop(out.Stop)
	}
	return &out
}

func TestBinaryRoundTripStop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		ev := &Event{
			Type: "stop",
			Seq:  uint64(i + 1),
			Emit: int64(1_700_000_000_000_000_000 + i),
			Stop: randStop(rng, uint64(100+i)),
		}
		frame := EncodeBinaryEvent(ev)
		dec, err := DecodeBinaryFrame(frame)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		want, got := binNormalize(t, ev), binNormalize(t, dec)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: round trip mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestBinaryRoundTripDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		base := randStop(rng, uint64(10+i))
		next := mutateStop(rng, base)
		ev := &Event{
			Type:  "stop",
			Seq:   uint64(i + 2),
			Emit:  12345,
			Delta: DiffStop(uint64(i+1), base, next),
		}
		frame := EncodeBinaryEvent(ev)
		dec, err := DecodeBinaryFrame(frame)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		want, got := binNormalize(t, ev), binNormalize(t, dec)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: round trip mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestBinaryRoundTripGeneric(t *testing.T) {
	cases := []*Event{
		{Type: "welcome", Seq: 1, SessionID: 7, Role: RoleObserver,
			Controller: 3, Peers: 4, Top: "Top", Mode: "replay",
			Files: 12, Reverse: true},
		{Type: "attach", Seq: 9, SessionID: 8, Controller: 3, Peers: 5},
		{Type: "goodbye", Seq: 10, SessionID: 8, Controller: 3, Peers: 4},
		{Type: "control", Seq: 11, Controller: 8, Reason: "release"},
		{Type: "resume", Seq: 12, Emit: 999, Command: "step"},
	}
	for _, ev := range cases {
		frame := EncodeBinaryEvent(ev)
		dec, err := DecodeBinaryFrame(frame)
		if err != nil {
			t.Fatalf("%s: decode: %v", ev.Type, err)
		}
		want, got := binNormalize(t, ev), binNormalize(t, dec)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: round trip mismatch:\n got %+v\nwant %+v", ev.Type, got, want)
		}
	}
}

// legacyBinaryFrames hand-assembles frames in the retired version-1
// and version-2 layouts: a v1 stop whose variables carry an unknown
// bool instead of a flags byte and whose watch hits carry no display
// strings, and a v2 welcome without the hub routing fields.
func legacyBinaryFrames() [][]byte {
	v1 := []byte{binMagic, 1, kindStop}
	v1 = appendStopHeader(v1, 3, 0, 9, "a.go", 4, 0, false, false)
	v1 = appendUvarint(v1, 1) // watch hits
	v1 = appendUvarint(v1, 1)
	v1 = appendString(v1, "Top")
	v1 = appendString(v1, "x")
	v1 = appendUvarint(v1, 0)
	v1 = appendUvarint(v1, 1)
	v1 = appendUvarint(v1, 1) // threads
	v1 = appendUvarint(v1, 1)
	v1 = appendString(v1, "Top")
	v1 = appendUvarint(v1, 1) // locals
	v1 = appendString(v1, "x")
	v1 = appendString(v1, "Top.x")
	v1 = appendUvarint(v1, 1)
	v1 = appendUvarint(v1, 8)
	v1 = appendBool(v1, false) // unknown
	v1 = appendUvarint(v1, 0)  // generator

	v2 := []byte{binMagic, 2, kindGeneric}
	v2 = appendString(v2, "welcome")
	for _, n := range []uint64{1, 0, 2, 2, 1, 3} { // seq, emit, session, controller, peers, files
		v2 = appendUvarint(v2, n)
	}
	for _, str := range []string{RoleController, "", "Top", "live", ""} { // role, reason, top, mode, command
		v2 = appendString(v2, str)
	}
	v2 = appendBool(v2, false) // reverse
	return [][]byte{v1, v2}
}

// TestBinaryDecodeRejects pins the defensive paths a fuzzer would find:
// truncation, bad header, hostile counts, trailing garbage.
func TestBinaryDecodeRejects(t *testing.T) {
	good := EncodeBinaryEvent(&Event{Type: "stop", Seq: 3, Stop: &core.StopEvent{
		Time: 9, File: "a.go", Line: 4,
		Threads: []core.Thread{{BreakpointID: 1, Instance: "Top",
			Locals: []core.Variable{{Name: "x", RTL: "Top.x", Value: 1, Width: 8}}}},
	}})

	cases := []struct {
		name  string
		frame []byte
	}{
		{"empty", nil},
		{"short", []byte{binMagic, binVersion}},
		{"bad magic", append([]byte{0x00}, good[1:]...)},
		{"bad version", append([]byte{binMagic, 0x7F}, good[2:]...)},
		{"bad kind", append([]byte{binMagic, binVersion, 0x7F}, good[3:]...)},
		{"truncated body", good[:len(good)-3]},
		{"trailing garbage", append(append([]byte{}, good...), 0xFF)},
		// kindStop with a huge thread count and no bytes to back it.
		{"hostile count", []byte{binMagic, binVersion, kindStop,
			1, 0, 5, 0, // seq, emit, time, file=""
			1, 0, 0, // line, col, flags
			0,                            // watch count
			0xFF, 0xFF, 0xFF, 0xFF, 0x7F, // thread count ~ 2^34
		}},
		// generic frame claiming type "stop" (must use kindStop).
		{"generic stop", EncodeBinaryEvent(&Event{Type: "stop"})},
	}
	for _, tc := range cases {
		if _, err := DecodeBinaryFrame(tc.frame); err == nil {
			t.Errorf("%s: decode succeeded on malformed frame", tc.name)
		}
	}

	// Only binVersion decodes: a real frame restamped with any other
	// version — including the retired 1 and 2, whose stop layout v3
	// kept — and the hand-built legacy frames fail with an error that
	// names the version found.
	badVersion := func(ver byte) []byte {
		frame := append([]byte(nil), good...)
		frame[1] = ver
		return frame
	}
	versioned := append([][]byte{badVersion(0), badVersion(1), badVersion(2), badVersion(4)}, legacyBinaryFrames()...)
	for _, frame := range versioned {
		_, err := DecodeBinaryFrame(frame)
		if err == nil {
			t.Errorf("bad version %d: decode succeeded", frame[1])
			continue
		}
		if want := fmt.Sprintf("version %d", frame[1]); !strings.Contains(err.Error(), want) {
			t.Errorf("bad version %d: error %q does not mention %q", frame[1], err, want)
		}
	}

	// Every truncation of a valid frame must error, never panic.
	for cut := 0; cut < len(good); cut++ {
		if _, err := DecodeBinaryFrame(good[:cut]); err == nil {
			t.Errorf("truncation at %d decoded successfully", cut)
		}
	}
}

// FuzzDecodeBinaryFrame hammers the attacker-facing decoder. Seeds are
// realistic frames of every kind — the same shapes the load harness
// captures from live broadcast traffic — so the fuzzer starts from
// structurally valid inputs and mutates toward the edge cases.
func FuzzDecodeBinaryFrame(f *testing.F) {
	rng := rand.New(rand.NewSource(13))
	// Full stops of assorted sizes.
	for i := 0; i < 4; i++ {
		f.Add(EncodeBinaryEvent(&Event{
			Type: "stop", Seq: uint64(i + 1), Emit: int64(i) * 1e9,
			Stop: randStop(rng, uint64(50*i)),
		}))
	}
	// Deltas, including full-thread fallbacks.
	for i := 0; i < 4; i++ {
		base := randStop(rng, uint64(10*i))
		f.Add(EncodeBinaryEvent(&Event{
			Type: "stop", Seq: uint64(i + 10), Emit: 77,
			Delta: DiffStop(uint64(i+9), base, mutateStop(rng, base)),
		}))
	}
	// Generic lifecycle events.
	f.Add(EncodeBinaryEvent(&Event{Type: "welcome", Seq: 1, SessionID: 2,
		Role: RoleController, Top: "Top", Mode: "live", Files: 3}))
	f.Add(EncodeBinaryEvent(&Event{Type: "resume", Seq: 4, Command: "continue"}))
	f.Add(EncodeBinaryEvent(&Event{Type: "goodbye", Seq: 5, SessionID: 9, Peers: 1}))
	// Hub frames (binary v3): the control-session greeting with the
	// registry size, and runtime-routed lifecycle events carrying the
	// registry id of the runtime the session is attached to.
	f.Add(EncodeBinaryEvent(&Event{Type: "hub-welcome", Seq: 1, Runtimes: 24}))
	f.Add(EncodeBinaryEvent(&Event{Type: "welcome", Seq: 1, SessionID: 3,
		Role: RoleObserver, Top: "Counter", Mode: "replay", Files: 2, Runtime: "rt-7"}))
	f.Add(EncodeBinaryEvent(&Event{Type: "goodbye", Seq: 8, SessionID: 3,
		Reason: "shutdown", Runtime: "rt-7"}))
	// Four-state / wide payloads — the v2 flag-byte encodings: low-word
	// x planes, >64-bit values with and without x planes, rendered
	// watch-hit displays.
	f.Add(EncodeBinaryEvent(&Event{Type: "stop", Seq: 20, Emit: 3, Stop: &core.StopEvent{
		Time: 40, File: "wide.go", Line: 7,
		Threads: []core.Thread{{BreakpointID: 2, Instance: "Top",
			Locals: []core.Variable{
				{Name: "st", RTL: "Top.st", Value: 0b100, X: 0b010, Width: 8},
				{Name: "bus", RTL: "Top.bus", Value: 1, Hi: []uint64{0xdead, 1}, Width: 130},
				{Name: "bx", RTL: "Top.bx", X: 1, Hi: []uint64{5}, XHi: []uint64{1 << 63}, Width: 128},
			}}},
		Watch: []core.WatchHit{{ID: 1, Expr: "st", Old: 4, New: 6,
			OldDisplay: "8'b0000001x", NewDisplay: "8'b00000110"}},
	}}))
	{
		base := randStop(rng, 200)
		next := mutateStop(rng, base)
		if len(next.Threads) > 0 && len(next.Threads[0].Locals) > 0 {
			next.Threads[0].Locals[0].X = 0xF0 // force a plane patch
		}
		f.Add(EncodeBinaryEvent(&Event{Type: "stop", Seq: 21, Emit: 4,
			Delta: DiffStop(20, base, next)}))
	}
	// Retired v1/v2 layouts — must be rejected, never decoded.
	for _, frame := range legacyBinaryFrames() {
		f.Add(frame)
	}
	// Degenerate inputs.
	f.Add([]byte{})
	f.Add([]byte{binMagic, binVersion, kindStop})

	f.Fuzz(func(t *testing.T, frame []byte) {
		ev, err := DecodeBinaryFrame(frame)
		if err != nil {
			return
		}
		// Anything that decodes must re-encode and decode to the same
		// event (the codec is canonical for decoded values).
		frame2 := EncodeBinaryEvent(ev)
		ev2, err := DecodeBinaryFrame(frame2)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		raw1, _ := json.Marshal(ev)
		raw2, _ := json.Marshal(ev2)
		if string(raw1) != string(raw2) {
			t.Fatalf("re-encode not canonical:\n first %s\nsecond %s", raw1, raw2)
		}
	})
}
