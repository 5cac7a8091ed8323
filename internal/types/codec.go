package types

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrCorrupt is returned when a buffer cannot be decoded.
var ErrCorrupt = errors.New("types: corrupt encoding")

// maxElems bounds collection lengths during decoding so corrupt or hostile
// inputs cannot trigger huge allocations.
const maxElems = 1 << 20

// enc is a little append-based binary encoder. All BIDL wire types use it so
// that message sizes (which drive simulated bandwidth costs) reflect a real
// serialization format.
type enc struct{ buf []byte }

func (e *enc) u32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *enc) u64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *enc) bytes(b []byte) {
	e.u32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}
func (e *enc) str(s string) { e.bytes([]byte(s)) }

// dec decodes buffers produced by enc. It records the first error and makes
// subsequent reads no-ops, so callers can check once at the end.
type dec struct {
	buf []byte
	off int
	err error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", ErrCorrupt, what, d.off)
	}
}

func (d *dec) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.buf) {
		d.fail("u32")
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail("u64")
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *dec) bytes() []byte {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+n > len(d.buf) {
		d.fail("bytes")
		return nil
	}
	v := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return v
}

func (d *dec) str() string { return string(d.bytes()) }

// count reads a collection length and validates it against maxElems.
func (d *dec) count() int {
	n := int(d.u32())
	if n > maxElems {
		d.fail("collection too large")
		return 0
	}
	return n
}

// done returns the accumulated error, also failing if bytes remain.
func (d *dec) done() error {
	if d.err == nil && d.off != len(d.buf) {
		d.fail("trailing bytes")
	}
	return d.err
}
