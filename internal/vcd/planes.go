package vcd

import "repro/internal/val"

// planeSeq is an append-only sequence of packed four-state values of a
// fixed word width: entry i's value plane is v[i*nw:(i+1)*nw]. The X
// plane is tracked lazily — x stays nil until an entry actually
// carries unknown bits, so fully two-state signals (the common case)
// pay nothing for four-state support. Entries handed back out of bits
// alias the packed storage; a planeSeq must therefore be treated as
// immutable once any Bits built from it may still be live (timelines
// already promise exactly that).
type planeSeq struct {
	nw int
	v  []uint64
	x  []uint64 // nil until an entry has unknown bits; then len(v)
}

// sigWords returns the per-entry word count for a declared width.
func sigWords(width int) int {
	if width <= 64 {
		return 1
	}
	return (width + 63) / 64
}

// length returns the number of entries.
func (p *planeSeq) length() int { return len(p.v) / p.nw }

// grow ensures the X plane exists (zero-filled for prior entries).
func (p *planeSeq) growX() {
	if p.x == nil {
		p.x = make([]uint64, len(p.v), cap(p.v))
	}
}

// appendBits adds one entry.
func (p *planeSeq) appendBits(b val.Bits) {
	hasX := b.HasX()
	if hasX {
		p.growX()
	}
	for i := 0; i < p.nw; i++ {
		p.v = append(p.v, b.Word(i))
	}
	if p.x != nil {
		for i := 0; i < p.nw; i++ {
			p.x = append(p.x, b.XWord(i))
		}
	}
}

// setLast overwrites the final entry (the ingest's same-block
// last-value update).
func (p *planeSeq) setLast(b val.Bits) {
	if b.HasX() {
		p.growX()
	}
	off := len(p.v) - p.nw
	for i := 0; i < p.nw; i++ {
		p.v[off+i] = b.Word(i)
	}
	if p.x != nil {
		for i := 0; i < p.nw; i++ {
			p.x[off+i] = b.XWord(i)
		}
	}
}

// bits returns entry i as a val.Bits of the given width, aliasing the
// packed planes (no copy).
func (p *planeSeq) bits(i, width int) val.Bits {
	b := val.Bits{Width: width, V0: p.v[i*p.nw]}
	if p.nw > 1 {
		b.VH = p.v[i*p.nw+1 : (i+1)*p.nw]
	}
	if p.x != nil {
		b.X0 = p.x[i*p.nw]
		if p.nw > 1 {
			b.XH = p.x[i*p.nw+1 : (i+1)*p.nw]
		}
	}
	return b
}

// byteSize returns the heap footprint of the packed planes.
func (p *planeSeq) byteSize() int { return 8 * (cap(p.v) + cap(p.x)) }
