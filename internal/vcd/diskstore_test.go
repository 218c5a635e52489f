package vcd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/rtl"
	"repro/internal/val"
)

// writeOpen round-trips a parsed store through the on-disk format.
func writeOpen(t testing.TB, st *Store, opts OpenOptions) *Store {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteStore(&buf, st); err != nil {
		t.Fatalf("WriteStore: %v", err)
	}
	ds, err := OpenStore(bytes.NewReader(buf.Bytes()), int64(buf.Len()), opts)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return ds
}

func flattenHier(n *rtl.InstanceNode) []string {
	if n == nil {
		return nil
	}
	out := []string{n.Path}
	out = append(out, n.Signals...)
	for _, c := range n.Children {
		out = append(out, flattenHier(c)...)
	}
	return out
}

// diffStores asserts two stores answer bit-identically: metadata,
// hierarchy, lazy point queries, materialized queries, and state
// sweeps.
func diffStores(t *testing.T, mem, disk *Store, label string) {
	t.Helper()
	if disk.MaxTime != mem.MaxTime {
		t.Fatalf("%s: MaxTime disk %d, mem %d", label, disk.MaxTime, mem.MaxTime)
	}
	if disk.NumSignals() != mem.NumSignals() || disk.NumBlocks() != mem.NumBlocks() ||
		disk.NumChanges() != mem.NumChanges() {
		t.Fatalf("%s: shape disk %d/%d/%d, mem %d/%d/%d", label,
			disk.NumSignals(), disk.NumBlocks(), disk.NumChanges(),
			mem.NumSignals(), mem.NumBlocks(), mem.NumChanges())
	}
	if disk.Stats != mem.Stats {
		t.Fatalf("%s: stats disk %+v, mem %+v", label, disk.Stats, mem.Stats)
	}
	a, b := flattenHier(mem.Hierarchy), flattenHier(disk.Hierarchy)
	if len(a) != len(b) {
		t.Fatalf("%s: hierarchy size disk %d, mem %d", label, len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: hierarchy[%d] disk %q, mem %q", label, i, b[i], a[i])
		}
	}
	names := mem.SignalNames()
	// Sample times around every occupied block window (timestamps are
	// sparse — 1e9-scale gaps are normal, so never stride over MaxTime)
	// plus an even spread across the whole range.
	bs := mem.BlockSize()
	timeSet := map[uint64]bool{0: true, mem.MaxTime: true}
	for i := range mem.blocks {
		start := mem.blocks[i].win * bs
		for _, tm := range []uint64{start, start + 1, start + bs/2, start + bs - 1, start + bs} {
			if tm <= mem.MaxTime {
				timeSet[tm] = true
			}
		}
		if start > 0 {
			timeSet[start-1] = true
		}
	}
	for i := uint64(0); i < 64; i++ {
		timeSet[mem.MaxTime/64*i] = true
	}
	times := make([]uint64, 0, len(timeSet))
	for tm := range timeSet {
		times = append(times, tm)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	for _, name := range names {
		ms, _ := mem.Signal(name)
		ds, ok := disk.Signal(name)
		if !ok {
			t.Fatalf("%s: disk missing %q", label, name)
		}
		if ds.Width != ms.Width || ds.Index() != ms.Index() || ds.NumChanges() != ms.NumChanges() {
			t.Fatalf("%s: %s meta disk %d/%d/%d, mem %d/%d/%d", label, name,
				ds.Width, ds.Index(), ds.NumChanges(), ms.Width, ms.Index(), ms.NumChanges())
		}
		for _, tm := range times {
			if got, want := ds.ValueAt(tm), ms.ValueAt(tm); got != want {
				t.Fatalf("%s: %s@%d disk %d, mem %d", label, name, tm, got, want)
			}
		}
	}
	// State sweeps share cursors across the two stores.
	memState := mem.NewState()
	diskState := disk.NewState()
	memScratch, diskScratch := mem.NewState(), disk.NewState()
	var mc, dc Cursor
	for _, tm := range times {
		if tm < mc.Time {
			continue
		}
		mc = mem.ApplyUpTo(mc, tm, memState, nil)
		dc = disk.ApplyUpTo(dc, tm, diskState, nil)
		if mc != dc {
			t.Fatalf("%s: cursor @%d disk %+v, mem %+v", label, tm, dc, mc)
		}
		for i := range memState.V {
			if memState.V[i] != diskState.V[i] || memState.X[i] != diskState.X[i] {
				t.Fatalf("%s: state word %d @%d disk %d/%d, mem %d/%d", label, i, tm,
					diskState.V[i], diskState.X[i], memState.V[i], memState.X[i])
			}
		}
		// Sweeps entering at a block start land alike on both stores.
		if sm, sd := mem.ApplyUpTo(lastBlockCursor(mem, tm), tm, memScratch, nil),
			disk.ApplyUpTo(lastBlockCursor(disk, tm), tm, diskScratch, nil); sm != sd {
			t.Fatalf("%s: block-start sweep to %d disk %+v, mem %+v", label, tm, sd, sm)
		}
	}
	// Materialized answers must also match.
	disk.Materialize(names...)
	for _, name := range names {
		ms, _ := mem.Signal(name)
		ds, _ := disk.Signal(name)
		for _, tm := range times {
			if got, want := ds.ValueAt(tm), ms.ValueAt(tm); got != want {
				t.Fatalf("%s: materialized %s@%d disk %d, mem %d", label, name, tm, got, want)
			}
		}
	}
	if err := disk.Err(); err != nil {
		t.Fatalf("%s: store poisoned: %v", label, err)
	}
}

// TestStoreRoundTrip is the primary disk-vs-memory differential on a
// real recorded design: the opened store must be bit-identical to the
// parsed store it was written from.
func TestStoreRoundTrip(t *testing.T) {
	data := recordDesign(t, 300)
	mem, err := ParseStore(bytes.NewReader(data), StoreOptions{BlockSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	disk := writeOpen(t, mem, OpenOptions{})
	diffStores(t, mem, disk, "roundtrip")
}

// TestWriteStoreRejectsDiskStore: re-serializing an opened store is not
// supported (its blocks are not resident); the writer must say so.
func TestWriteStoreRejectsDiskStore(t *testing.T) {
	data := recordDesign(t, 20)
	mem, err := ParseStore(bytes.NewReader(data), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	disk := writeOpen(t, mem, OpenOptions{})
	if err := WriteStore(&bytes.Buffer{}, disk); err == nil {
		t.Fatal("WriteStore accepted a disk-backed store")
	}
}

// xorshift is the deterministic PRNG used for random-trace generation.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

// randomVCD generates a syntactically valid trace with random signal
// widths, sparse timestamps, and wide/x-state vectors.
func randomVCD(rng *xorshift) []byte {
	var sb strings.Builder
	nsig := int(rng.next()%12) + 1
	sb.WriteString("$scope module top $end\n")
	widths := make([]int, nsig)
	for i := 0; i < nsig; i++ {
		widths[i] = int(rng.next()%80) + 1 // some wider than 64
		fmt.Fprintf(&sb, "$var wire %d %s s%d $end\n", widths[i], idCode(i), i)
	}
	sb.WriteString("$upscope $end\n$enddefinitions $end\n")
	tm := uint64(0)
	steps := int(rng.next() % 200)
	for s := 0; s < steps; s++ {
		fmt.Fprintf(&sb, "#%d\n", tm)
		nch := int(rng.next()%uint64(nsig)) + 1
		for c := 0; c < nch; c++ {
			i := int(rng.next() % uint64(nsig))
			if widths[i] == 1 {
				fmt.Fprintf(&sb, "%d%s\n", rng.next()&1, idCode(i))
				continue
			}
			var bits strings.Builder
			for b := 0; b < widths[i]; b++ {
				switch rng.next() % 6 {
				case 0:
					bits.WriteByte('x')
				case 1:
					bits.WriteByte('z')
				default:
					bits.WriteByte(byte('0' + rng.next()&1))
				}
			}
			fmt.Fprintf(&sb, "b%s %s\n", bits.String(), idCode(i))
		}
		// Mostly small hops, occasionally a huge sparse gap.
		if rng.next()%20 == 0 {
			tm += rng.next() % 1e9
		} else {
			tm += rng.next()%5 + 1
		}
	}
	return []byte(sb.String())
}

// TestDiskMemoryDifferentialRandom fuzzes the round trip with random
// traces: whatever ParseStore builds, WriteStore+OpenStore must
// reproduce bit-identically.
func TestDiskMemoryDifferentialRandom(t *testing.T) {
	rng := xorshift(0x9E3779B97F4A7C15)
	for i := 0; i < 25; i++ {
		data := randomVCD(&rng)
		bs := uint64(1) << (rng.next()%8 + 1) // 2..256
		mem, err := ParseStore(bytes.NewReader(data), StoreOptions{BlockSize: bs})
		if err != nil {
			t.Fatalf("trace %d: %v", i, err)
		}
		disk := writeOpen(t, mem, OpenOptions{})
		diffStores(t, mem, disk, fmt.Sprintf("random-%d(bs=%d)", i, bs))
	}
}

// TestIndexFile checks the streaming ingest path: indexing a VCD file
// must produce a store identical to ParseStore over the same text, and
// report honest stats.
func TestIndexFile(t *testing.T) {
	data := recordDesign(t, 250)
	dir := t.TempDir()
	vcdPath := filepath.Join(dir, "trace.vcd")
	storePath := filepath.Join(dir, "trace.hgdbstore")
	if err := os.WriteFile(vcdPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	stats, err := IndexFile(vcdPath, storePath, StoreOptions{BlockSize: 16})
	if err != nil {
		t.Fatalf("IndexFile: %v", err)
	}
	mem, err := ParseStore(bytes.NewReader(data), StoreOptions{BlockSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Signals != mem.NumSignals() || stats.Blocks != mem.NumBlocks() ||
		stats.Changes != mem.NumChanges() || stats.MaxTime != mem.MaxTime {
		t.Fatalf("IndexStats %+v vs store %d/%d/%d/%d", stats,
			mem.NumSignals(), mem.NumBlocks(), mem.NumChanges(), mem.MaxTime)
	}
	fi, err := os.Stat(storePath)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != stats.Bytes {
		t.Fatalf("stats.Bytes = %d, file is %d", stats.Bytes, fi.Size())
	}
	disk, err := OpenStoreFile(storePath, OpenOptions{})
	if err != nil {
		t.Fatalf("OpenStoreFile: %v", err)
	}
	defer disk.Close()
	diffStores(t, mem, disk, "indexfile")

	// A malformed VCD must not leave a partial store file behind.
	badVCD := filepath.Join(dir, "bad.vcd")
	badStore := filepath.Join(dir, "bad.hgdbstore")
	if err := os.WriteFile(badVCD, []byte("$enddefinitions $end\n#5\n#3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := IndexFile(badVCD, badStore, StoreOptions{}); err == nil {
		t.Fatal("IndexFile accepted a regressed-timestamp trace")
	}
	if _, err := os.Stat(badStore); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("partial store file left behind: %v", err)
	}

	// Opening raw VCD text as a store must report ErrNotStore (the
	// OpenTrace sniff-and-fallback contract).
	if _, err := OpenStoreFile(vcdPath, OpenOptions{}); !errors.Is(err, ErrNotStore) {
		t.Fatalf("raw VCD open error = %v, want ErrNotStore", err)
	}
}

// TestOpenTrace pins the one trace opener: a store file opens through
// OpenStore with its blocks left on disk, raw VCD text takes the parse
// path, a missing file is an error, and a file with the store magic but
// a corrupt or truncated header is an error — never re-read as text.
func TestOpenTrace(t *testing.T) {
	data := recordDesign(t, 40)
	mem, err := ParseStore(bytes.NewReader(data), StoreOptions{BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteStore(&buf, mem); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	badVersion := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(badVersion[8:], 99)
	dir := t.TempDir()
	write := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name    string
		path    string
		disk    bool // opened through OpenStore: blocks stay on disk
		wantErr bool
	}{
		{"store file", write("trace.hgdbstore", valid), true, false},
		{"raw vcd", write("trace.vcd", data), false, false},
		{"missing file", filepath.Join(dir, "absent.vcd"), false, true},
		{"corrupt header", write("bad.hgdbstore", badVersion), false, true},
		{"truncated header", write("short.hgdbstore", valid[:headerSize-1]), false, true},
	}
	for _, tc := range cases {
		st, err := OpenTrace(tc.path, StoreOptions{BlockSize: 8}, OpenOptions{})
		if tc.wantErr {
			if err == nil {
				t.Fatalf("%s: opened (%d signals), want an error", tc.name, st.NumSignals())
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if onDisk := st.src != nil; onDisk != tc.disk {
			t.Fatalf("%s: disk-backed = %v, want %v", tc.name, onDisk, tc.disk)
		}
		diffStores(t, mem, st, tc.name)
		st.Close()
	}
}

// TestBlockCacheEviction pins the block LRU byte bound: with a cache
// smaller than the trace, repeated point queries across many blocks
// stay correct while resident cache bytes never exceed the bound.
func TestBlockCacheEviction(t *testing.T) {
	data := recordDesign(t, 300)
	mem, err := ParseStore(bytes.NewReader(data), StoreOptions{BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Largest single block sets the floor for a useful bound.
	maxBlock := 0
	for i := range mem.blocks {
		if len(mem.blocks[i].buf) > maxBlock {
			maxBlock = len(mem.blocks[i].buf)
		}
	}
	disk := writeOpen(t, mem, OpenOptions{BlockCacheBytes: 2 * maxBlock})
	tr := mem
	names := tr.SignalNames()
	rng := xorshift(42)
	for q := 0; q < 2000; q++ {
		name := names[rng.next()%uint64(len(names))]
		tm := rng.next() % (tr.MaxTime + 1)
		ms, _ := tr.Signal(name)
		ds, _ := disk.Signal(name)
		if got, want := ds.ValueAt(tm), ms.ValueAt(tm); got != want {
			t.Fatalf("%s@%d = %d, want %d", name, tm, got, want)
		}
		if got := disk.cache.bytes(); got > 2*maxBlock {
			t.Fatalf("cache bytes %d over bound %d", got, 2*maxBlock)
		}
	}
	if disk.cache.bytes() == 0 {
		t.Fatal("cache never held a block")
	}
	if err := disk.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptBlockPoisons flips bytes in the block-data region and
// checks the failure mode the decoder hardening bought: queries
// terminate (no fabricated records, no infinite loop) and the store
// reports a sticky error instead of silently serving garbage.
func TestCorruptBlockPoisons(t *testing.T) {
	data := recordDesign(t, 100)
	mem, err := ParseStore(bytes.NewReader(data), StoreOptions{BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteStore(&buf, mem); err != nil {
		t.Fatal(err)
	}
	// WriteStore puts block data last; stomp a span near the end so
	// several blocks are damaged.
	raw := buf.Bytes()
	for i := len(raw) - 64; i < len(raw); i++ {
		raw[i] ^= 0xA5
	}
	disk, err := OpenStore(bytes.NewReader(raw), int64(len(raw)), OpenOptions{})
	if err != nil {
		// Also acceptable: damage reached metadata and open refused.
		return
	}
	state := disk.NewState()
	disk.ApplyUpTo(Cursor{}, disk.MaxTime, state, nil) // must terminate
	for _, name := range disk.SignalNames() {
		ds, _ := disk.Signal(name)
		for tm := uint64(0); tm <= disk.MaxTime; tm += 5 {
			ds.ValueAt(tm)
		}
	}
	disk.Materialize(disk.SignalNames()...)
	if disk.Err() == nil {
		t.Fatal("corrupt block data went undetected")
	}
}

// TestBlockReaderHostile pins the decoder validation directly: corrupt
// varint streams must stop with an error, never fabricate records or
// loop forever (a zero-size record once made commit stop advancing).
func TestBlockReaderHostile(t *testing.T) {
	hostile := [][]byte{
		{0x80},                         // unterminated varint
		{0x01, 0x80},                   // good sig, unterminated delta
		{0x01, 0x01, 0x80},             // good sig+delta, unterminated bits
		bytes.Repeat([]byte{0x80}, 32), // run of continuation bytes
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, // uvarint overflow
	}
	for i, buf := range hostile {
		r := blockReader{buf: buf}
		steps := 0
		var rec record
		for r.next(&rec) {
			r.commit(&rec)
			if steps++; steps > len(buf) {
				t.Fatalf("case %d: reader did not terminate", i)
			}
		}
		if r.err == nil && r.off < len(buf) {
			t.Fatalf("case %d: stopped early without error", i)
		}
	}
	// A valid v2 stream still decodes cleanly.
	var good []byte
	good = binary.AppendUvarint(good, 3<<2) // head: sig 3, known, narrow
	good = binary.AppendUvarint(good, 7)    // delta
	good = binary.AppendUvarint(good, 99)   // value word
	r := blockReader{buf: good, time: 100}
	var rec record
	ok := r.next(&rec)
	if !ok || r.err != nil || rec.sig != 3 || rec.time != 107 || rec.v0 != 99 || rec.x0 != 0 {
		t.Fatalf("valid stream misdecoded: %+v ok=%v err=%v", rec, ok, r.err)
	}
	// A four-state wide record round-trips through appendRecord.
	b, err := val.ParseVCD("1x"+strings.Repeat("01", 40), 82)
	if err != nil {
		t.Fatal(err)
	}
	enc := appendRecord(nil, 5, 9, b)
	r = blockReader{buf: enc, time: 100}
	ok = r.next(&rec)
	if !ok || r.err != nil || rec.sig != 5 || rec.time != 109 {
		t.Fatalf("wide record misdecoded: %+v ok=%v err=%v", rec, ok, r.err)
	}
	if got := rec.bits(82); !got.CaseEq(b) {
		t.Fatalf("wide record value = %s, want %s", got.String(), b.String())
	}
}

// TestOpenStoreHostile mutates a valid store's header and metadata in
// targeted ways; every mutation must be rejected at open (or at worst
// poison the store on first touch), never panic, hang, or over-allocate.
func TestOpenStoreHostile(t *testing.T) {
	data := recordDesign(t, 60)
	mem, err := ParseStore(bytes.NewReader(data), StoreOptions{BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteStore(&buf, mem); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	put32 := func(b []byte, off int, v uint32) { binary.LittleEndian.PutUint32(b[off:], v) }
	put64 := func(b []byte, off int, v uint64) { binary.LittleEndian.PutUint64(b[off:], v) }
	cases := []struct {
		name     string
		mutate   func(b []byte) []byte
		notStore bool // must report ErrNotStore specifically
	}{
		{"empty", func(b []byte) []byte { return nil }, true},
		{"short", func(b []byte) []byte { return b[:headerSize-1] }, true},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, true},
		{"bad version", func(b []byte) []byte { put32(b, 8, 99); return b }, false},
		{"zero block size", func(b []byte) []byte { put64(b, 24, 0); return b }, false},
		{"section count bomb", func(b []byte) []byte { put32(b, 12, 1<<30); return b }, false},
		{"section table past EOF", func(b []byte) []byte { put64(b, 16, uint64(len(b))); return b }, false},
		{"signal count bomb", func(b []byte) []byte { put32(b, 40, 1<<31); return b }, false},
		{"block count bomb", func(b []byte) []byte { put32(b, 44, 1<<31); return b }, false},
		{"change count bomb", func(b []byte) []byte { put64(b, 48, 1<<62); return b }, false},
		{"truncated metadata", func(b []byte) []byte { return b[:headerSize+40] }, false},
		{"truncated blocks", func(b []byte) []byte { return b[:len(b)-len(b)/4] }, false},
	}
	for _, tc := range cases {
		b := tc.mutate(append([]byte(nil), valid...))
		st, err := OpenStore(bytes.NewReader(b), int64(len(b)), OpenOptions{})
		if tc.notStore {
			if !errors.Is(err, ErrNotStore) {
				t.Fatalf("%s: err = %v, want ErrNotStore", tc.name, err)
			}
			continue
		}
		if err == nil {
			// truncated-blocks keeps metadata intact when sections precede
			// data; the damage must then surface as a sticky error on
			// first touch, not as fabricated values.
			state := st.NewState()
			st.ApplyUpTo(Cursor{}, st.MaxTime, state, nil)
			if st.Err() == nil {
				t.Fatalf("%s: opened and served without error", tc.name)
			}
			continue
		}
		if errors.Is(err, ErrNotStore) {
			t.Fatalf("%s: misclassified as not-a-store: %v", tc.name, err)
		}
	}
}

// FuzzOpenStore throws hostile bytes at the full open + query path.
// Any input may be rejected; accepted inputs must be served without
// panics, hangs, or unbounded allocation, and corruption discovered
// lazily must poison the store rather than fabricate history.
func FuzzOpenStore(f *testing.F) {
	// Seeds: a valid store, a truncation, a bit flip, raw VCD text.
	data := recordDesign(f, 40)
	mem, err := ParseStore(bytes.NewReader(data), StoreOptions{BlockSize: 8})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteStore(&buf, mem); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add(data)
	f.Add([]byte("hgdbstor"))
	// Four-state + >64-bit seed: x at reset on a 128-bit bus, mixed
	// x/z vectors later — exercises the v2 mask-plane record paths.
	fourState := []byte("$scope module top $end\n" +
		"$var wire 8 ! st $end\n" +
		"$var wire 128 \" bus $end\n" +
		"$upscope $end\n$enddefinitions $end\n" +
		"#0\nbxxxxxxxx !\nb" + strings.Repeat("x", 128) + " \"\n" +
		"#4\nb1x0z1010 !\nb1" + strings.Repeat("0", 126) + "1 \"\n" +
		"#9\nb10101010 !\nb" + strings.Repeat("10", 64) + " \"\n")
	memX, err := ParseStore(bytes.NewReader(fourState), StoreOptions{BlockSize: 4})
	if err != nil {
		f.Fatal(err)
	}
	var bufX bytes.Buffer
	if err := WriteStore(&bufX, memX); err != nil {
		f.Fatal(err)
	}
	f.Add(bufX.Bytes())
	f.Add(fourState)
	// Legacy version-1 file — must be rejected, never decoded.
	f.Add(buildV1Store(f))
	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := OpenStore(bytes.NewReader(b), int64(len(b)), OpenOptions{BlockCacheBytes: 1 << 16})
		if err != nil {
			return
		}
		// Bounded exercise of every read path.
		names := st.SignalNames()
		if len(names) > 16 {
			names = names[:16]
		}
		times := []uint64{0, 1, st.BlockSize(), st.BlockSize() * 3, st.MaxTime}
		for _, name := range names {
			ts, _ := st.Signal(name)
			for _, tm := range times {
				ts.ValueAt(tm)
			}
		}
		state := st.NewState()
		var cur Cursor
		for _, tm := range times {
			if tm < cur.Time {
				continue
			}
			cur = st.ApplyUpTo(cur, tm, state, nil)
			st.ApplyUpTo(lastBlockCursor(st, tm), tm, st.NewState(), nil)
			st.NextChangeTime(cur)
		}
		st.Materialize(names...)
		for _, name := range names {
			ts, _ := st.Signal(name)
			ts.ValueAt(st.MaxTime)
		}
	})
}

// buildV1Store hand-assembles a legacy version-1 store file: two-state
// three-varint records, plain single-word last-value rows, no x/z
// header statistics — the files an older hgdb-index wrote before the
// four-state format bump. It is the fixture for their rejection.
func buildV1Store(t testing.TB) []byte {
	t.Helper()
	// Signals: top.a (8 bits, changes at t=0→1 and t=5→9) and
	// top.b (1 bit, change at t=0→1). One 16-tick block, window 0.
	blockData := []byte{}
	blockData = binary.AppendUvarint(blockData, 0) // sig 0
	blockData = binary.AppendUvarint(blockData, 0) // t=0
	blockData = binary.AppendUvarint(blockData, 1) // v=1
	blockData = binary.AppendUvarint(blockData, 1) // sig 1
	blockData = binary.AppendUvarint(blockData, 0) // t=0
	blockData = binary.AppendUvarint(blockData, 1) // v=1
	blockData = binary.AppendUvarint(blockData, 0) // sig 0
	blockData = binary.AppendUvarint(blockData, 5) // t=5
	blockData = binary.AppendUvarint(blockData, 9) // v=9

	blockDir := []byte{}
	blockDir = binary.AppendUvarint(blockDir, 0) // window 0
	blockDir = binary.AppendUvarint(blockDir, uint64(len(blockData)))
	blockDir = binary.AppendUvarint(blockDir, uint64(crc32.Checksum(blockData, crcTable)))

	// Strings: 0="top.a", 1="top.b", 2="top".
	strTab := []byte{}
	names := []string{"top.a", "top.b", "top"}
	strTab = binary.AppendUvarint(strTab, uint64(len(names)))
	for _, s := range names {
		strTab = binary.AppendUvarint(strTab, uint64(len(s)))
		strTab = append(strTab, s...)
	}

	// v1 signal rows: name ref, width, change count, sparse index, then
	// one plain last-value word per indexed block.
	signals := []byte{}
	signals = binary.AppendUvarint(signals, 0) // top.a
	signals = binary.AppendUvarint(signals, 8)
	signals = binary.AppendUvarint(signals, 2)
	signals = binary.AppendUvarint(signals, 1) // one indexed block
	signals = binary.AppendUvarint(signals, 0) // block slot 0
	signals = binary.AppendUvarint(signals, 9) // last value in block
	signals = binary.AppendUvarint(signals, 1) // top.b
	signals = binary.AppendUvarint(signals, 1)
	signals = binary.AppendUvarint(signals, 1)
	signals = binary.AppendUvarint(signals, 1)
	signals = binary.AppendUvarint(signals, 0)
	signals = binary.AppendUvarint(signals, 1)

	// Hierarchy: one node "top" owning both signals.
	hier := []byte{}
	hier = binary.AppendUvarint(hier, 1) // node count
	hier = binary.AppendUvarint(hier, 2) // name ref "top"
	hier = binary.AppendUvarint(hier, 2) // two signals
	hier = binary.AppendUvarint(hier, 0)
	hier = binary.AppendUvarint(hier, 1)
	hier = binary.AppendUvarint(hier, 0) // no children

	secs := []struct {
		id   uint32
		data []byte
	}{
		{secBlockDir, blockDir},
		{secSignals, signals},
		{secStrings, strTab},
		{secHier, hier},
		{secBlocks, blockData},
	}
	tableOff := uint64(headerSize)
	dataOff := tableOff + uint64(len(secs)*20)
	var table, body []byte
	for _, s := range secs {
		var tmp [20]byte
		binary.LittleEndian.PutUint32(tmp[0:4], s.id)
		binary.LittleEndian.PutUint64(tmp[4:12], dataOff)
		binary.LittleEndian.PutUint64(tmp[12:20], uint64(len(s.data)))
		table = append(table, tmp[:]...)
		body = append(body, s.data...)
		dataOff += uint64(len(s.data))
	}

	h := make([]byte, headerSize)
	copy(h[0:8], storeMagic[:])
	binary.LittleEndian.PutUint32(h[8:12], 1)
	binary.LittleEndian.PutUint32(h[12:16], uint32(len(secs)))
	binary.LittleEndian.PutUint64(h[16:24], tableOff)
	binary.LittleEndian.PutUint64(h[24:32], 16) // block size
	binary.LittleEndian.PutUint64(h[32:40], 5)  // max time
	binary.LittleEndian.PutUint32(h[40:44], 2)  // signals
	binary.LittleEndian.PutUint32(h[44:48], 1)  // blocks
	binary.LittleEndian.PutUint64(h[48:56], 3)  // changes
	// h[56:64]: the v1 masked-wide-change statistic; left zero.
	return append(append(h, table...), body...)
}

// TestOpenStoreRejectsV1 pins the old-version rejection: a version-1
// (two-state) store file must fail to open with an error naming the
// version found and the one this build reads — not a generic
// corruption message and never a misdecode.
func TestOpenStoreRejectsV1(t *testing.T) {
	raw := buildV1Store(t)
	st, err := OpenStore(bytes.NewReader(raw), int64(len(raw)), OpenOptions{})
	if err == nil {
		t.Fatalf("version-1 store opened (%d signals)", len(st.SignalNames()))
	}
	if errors.Is(err, ErrNotStore) {
		t.Fatalf("version 1 misclassified as not-a-store: %v", err)
	}
	for _, want := range []string{"version 1 ", fmt.Sprintf("version %d", StoreVersion)} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

// TestOpenStoreNewerVersion pins forward negotiation: a store stamped
// with a future format version must fail with the explicit
// newer-version error, not a generic corruption message and never a
// misdecode.
func TestOpenStoreNewerVersion(t *testing.T) {
	data := recordDesign(t, 20)
	mem, err := ParseStore(bytes.NewReader(data), StoreOptions{BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteStore(&buf, mem); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	binary.LittleEndian.PutUint32(raw[8:12], StoreVersion+1)
	_, err = OpenStore(bytes.NewReader(raw), int64(len(raw)), OpenOptions{})
	if err == nil {
		t.Fatal("newer-version store opened")
	}
	if errors.Is(err, ErrNotStore) {
		t.Fatalf("newer version misclassified as not-a-store: %v", err)
	}
	for _, want := range []string{"newer", fmt.Sprintf("version %d", StoreVersion+1)} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}
