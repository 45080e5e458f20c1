package netx

import (
	"errors"
	"io"
	"testing"
)

// TestCursorLatchesFirstError: reads decode big-endian fields in order; the
// first short read, refused count or Fail is the error the cursor keeps, and
// every read after it returns its zero value without consuming anything.
func TestCursorLatchesFirstError(t *testing.T) {
	c := NewCursor([]byte{1, 0, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 4, 5, 6})
	if c.U8() != 1 || c.U16() != 2 || c.U32() != 3 || c.U64() != 4 || c.Err() != nil || c.Len() != 2 {
		t.Fatalf("scalars misread: err %v, %d bytes left", c.Err(), c.Len())
	}
	if c.U32() != 0 || !errors.Is(c.Err(), io.ErrUnexpectedEOF) || c.Len() != 2 {
		t.Fatalf("short read: err %v, %d bytes left; want io.ErrUnexpectedEOF and nothing consumed", c.Err(), c.Len())
	}
	c.Fail(errors.New("later"))
	if c.U8() != 0 || c.Take(1) != nil || c.Fits("x", 0, 1) != 0 || !errors.Is(c.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("reads after the first error: err %v", c.Err())
	}

	c = NewCursor([]byte{1, 2})
	if c.Take(-1) != nil || c.Err() == nil || c.Len() != 2 {
		t.Fatalf("a negative Take was not refused: err %v", c.Err())
	}
}

// TestCursorCountsFlagsAndSubs: Fits refuses a count whose elements cannot
// fit in the bytes left, Bool any flag byte but 0 and 1, and a short Sub
// fails both cursors while a whole one latches its own errors apart.
func TestCursorCountsFlagsAndSubs(t *testing.T) {
	c := NewCursor(make([]byte, 12))
	if n := c.Fits("entry", 3, 4); n != 3 || c.Err() != nil {
		t.Fatalf("Fits(3×4 of 12 bytes) = %d, %v", n, c.Err())
	}
	if n := c.Fits("entry", 1<<31, 1<<31); n != 0 || c.Err() == nil {
		t.Fatalf("Fits(2^62 bytes of 12) = %d, %v; want 0 and an error", n, c.Err())
	}

	for b, want := range map[byte]bool{0: false, 1: true} {
		c := NewCursor([]byte{b})
		if got := c.Bool("f"); got != want || c.Err() != nil {
			t.Fatalf("Bool(%d) = %v, %v", b, got, c.Err())
		}
	}
	c = NewCursor([]byte{2})
	if c.Bool("f") || c.Err() == nil {
		t.Fatal("Bool accepted flag byte 2")
	}

	c = NewCursor([]byte{9, 7, 8})
	sub := c.Sub(2)
	if sub.U8() != 9 || sub.U16() != 0 || sub.Err() == nil || c.Err() != nil || c.U8() != 8 {
		t.Fatalf("a sub-cursor's short read reached its parent: sub %v, parent %v", sub.Err(), c.Err())
	}
	sub = c.Sub(1)
	if sub.Err() == nil || c.Err() == nil {
		t.Fatalf("a short Sub left a cursor unfailed: sub %v, parent %v", sub.Err(), c.Err())
	}
}
