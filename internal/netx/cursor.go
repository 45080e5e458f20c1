package netx

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Cursor reads big-endian fixed-width fields from bytes already in memory,
// latching the first error. After a short read, a refused count or a Fail,
// every read returns its zero value (Take returns nil), so a decoder reads a
// whole record and tests Err once. It is the one decoding discipline of the
// checkpoint, the cluster's frames and ledger, and the BGP and MRT formats.
type Cursor struct {
	b   []byte
	err error
}

// NewCursor returns a cursor over b.
func NewCursor(b []byte) Cursor { return Cursor{b: b} }

// Err returns the latched error, or nil.
func (c *Cursor) Err() error { return c.err }

// Len returns the number of bytes left.
func (c *Cursor) Len() int { return len(c.b) }

// Fail latches err, unless an earlier error is latched already.
func (c *Cursor) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Take consumes n bytes and returns them, aliasing the input, or latches
// io.ErrUnexpectedEOF and returns nil.
func (c *Cursor) Take(n int) []byte {
	if c.err != nil || uint(n) > uint(len(c.b)) {
		c.Fail(io.ErrUnexpectedEOF)
		return nil
	}
	p := c.b[:n]
	c.b = c.b[n:]
	return p
}

// U8 reads one byte.
func (c *Cursor) U8() uint8 {
	if p := c.Take(1); p != nil {
		return p[0]
	}
	return 0
}

// U16 reads a big-endian uint16.
func (c *Cursor) U16() uint16 {
	if p := c.Take(2); p != nil {
		return binary.BigEndian.Uint16(p)
	}
	return 0
}

// U32 reads a big-endian uint32.
func (c *Cursor) U32() uint32 {
	if p := c.Take(4); p != nil {
		return binary.BigEndian.Uint32(p)
	}
	return 0
}

// U64 reads a big-endian uint64.
func (c *Cursor) U64() uint64 {
	if p := c.Take(8); p != nil {
		return binary.BigEndian.Uint64(p)
	}
	return 0
}

// Bool reads a one-byte flag, refusing any byte but 0 and 1: a format with
// one encoding per value has one byte per flag.
func (c *Cursor) Bool(what string) bool {
	switch v := c.U8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		c.Fail(fmt.Errorf("%s flag %d is not a bool", what, v))
		return false
	}
}

// Sub consumes n bytes and returns a cursor over them, for a field whose
// length is declared in front of it. The two latch their errors apart; after
// a short Sub both have failed.
func (c *Cursor) Sub(n int) Cursor {
	p := c.Take(n)
	return Cursor{b: p, err: c.err}
}

// Fits checks a declared count of n elements of at least elem bytes each
// against the bytes left, before anything is allocated for them, so decoder
// memory is bounded by the input's length, never by a forged count. It
// returns n, or 0 once an error is latched, so a loop over the count needs
// no test of its own.
func (c *Cursor) Fits(what string, n uint32, elem int) int {
	if c.err != nil {
		return 0
	}
	if uint64(n)*uint64(elem) > uint64(len(c.b)) {
		c.err = fmt.Errorf("%s count %d exceeds the %d bytes left", what, n, len(c.b))
		return 0
	}
	return int(n)
}
