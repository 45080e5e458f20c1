package netx

import (
	"math/rand"
	"testing"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	if b.Count() != 0 {
		t.Fatalf("fresh bitset: count=%d", b.Count())
	}
	for _, i := range []int{0, 63, 64, 129} {
		b.Set(i)
		if !b.Test(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Count() != 4 {
		t.Fatalf("Count = %d", b.Count())
	}
	b.Clear(64)
	if b.Test(64) || b.Count() != 3 {
		t.Fatal("Clear failed")
	}
}

func TestBitsetOrAndContainsAll(t *testing.T) {
	a, b := NewBitset(200), NewBitset(200)
	a.Set(1)
	a.Set(100)
	b.Set(100)
	b.Set(199)
	a.Or(b)
	for _, i := range []int{1, 100, 199} {
		if !a.Test(i) {
			t.Fatalf("bit %d lost after Or", i)
		}
	}
	// a |= b leaves a containing all of b, and b unchanged.
	b.ForEach(func(i int) {
		if !a.Test(i) {
			t.Fatalf("a lacks b's bit %d after a |= b", i)
		}
	})
	if a.Count() != 3 || b.Count() != 2 || b.Test(1) {
		t.Fatal("Or must change only its receiver")
	}
}

func TestBitsetForEachOrder(t *testing.T) {
	b := NewBitset(300)
	want := []int{3, 64, 65, 128, 299}
	for _, i := range want {
		b.Set(i)
	}
	var got []int
	b.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order: got %v", got)
		}
	}
}

func TestBitsetAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := NewBitset(1000)
	ref := map[int]bool{}
	for i := 0; i < 5000; i++ {
		k := rng.Intn(1000)
		if rng.Intn(3) == 0 {
			b.Clear(k)
			delete(ref, k)
		} else {
			b.Set(k)
			ref[k] = true
		}
	}
	if b.Count() != len(ref) {
		t.Fatalf("Count = %d want %d", b.Count(), len(ref))
	}
	for k := range ref {
		if !b.Test(k) {
			t.Fatalf("bit %d missing", k)
		}
	}
}
