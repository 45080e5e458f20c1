package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestJournalRingOverwrite(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 6; i++ {
		j.Recordf("tick", "event %d", i)
	}
	if n := len(j.Events()); n != 4 {
		t.Fatalf("len: got %d, want 4", n)
	}
	if j.Dropped() != 2 {
		t.Fatalf("dropped: got %d, want 2", j.Dropped())
	}
	events := j.Events()
	// Oldest first, with a gap-free Seq range proving which were evicted.
	if events[0].Msg != "event 2" || events[3].Msg != "event 5" {
		t.Fatalf("retained window: %+v", events)
	}
	for i, e := range events {
		if e.Seq != uint64(i+3) {
			t.Fatalf("seq[%d]: got %d, want %d", i, e.Seq, i+3)
		}
		if e.Mono < 0 {
			t.Fatalf("negative monotonic offset: %v", e.Mono)
		}
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Record("kind", "msg") // must not panic
	j.Recordf("kind", "%d", 1)
	if j.Dropped() != 0 || j.Events() != nil {
		t.Fatal("nil journal must report empty")
	}
	if got := j.Summary(5); got != "journal: disabled" {
		t.Fatalf("nil summary: %q", got)
	}
}

func TestJournalSummary(t *testing.T) {
	j := NewJournal(8)
	j.Record(EventEpochSwap, "promoted epoch 1")
	j.Record(EventBGPFlap, "session lost")
	j.Record(EventEpochSwap, "promoted epoch 2")
	s := j.Summary(2)
	for _, want := range []string{
		"3 events retained",
		"bgp-flap=1 epoch-swap=2",
		"last 2:",
		"promoted epoch 2",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "promoted epoch 1") {
		t.Fatalf("tail of 2 must omit the first event:\n%s", s)
	}
}

func TestJournalConcurrent(t *testing.T) {
	j := NewJournal(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				j.Record("tick", "x")
				j.Events()
				j.Summary(1)
			}
		}()
	}
	wg.Wait()
	if got := j.Dropped() + uint64(len(j.Events())); got != 800 {
		t.Fatalf("retained+dropped: got %d, want 800", got)
	}
}

func TestTelemetryHealthDefaults(t *testing.T) {
	tel := NewTelemetry()
	if h := tel.Health(); !h.Ready || h.Status != "ok" {
		t.Fatalf("default health: %+v", h)
	}
	tel.SetHealth(func() Health {
		return Health{Ready: false, Status: "unready", Detail: "warming up"}
	})
	if h := tel.Health(); h.Ready || h.Status != "unready" {
		t.Fatalf("installed health source ignored: %+v", h)
	}
	var nilTel *Telemetry
	if h := nilTel.Health(); !h.Ready {
		t.Fatalf("nil telemetry must default ready: %+v", h)
	}
	nilTel.Record("kind", "msg") // must not panic
}

func TestEventsSinceAndGap(t *testing.T) {
	j := NewJournal(4)
	for i := 1; i <= 3; i++ {
		j.Recordf("k", "event %d", i)
	}
	ev, gap := j.EventsSince(0, "")
	if gap || len(ev) != 3 || ev[0].Seq != 1 {
		t.Fatalf("since 0: %d events gap=%v", len(ev), gap)
	}
	ev, gap = j.EventsSince(2, "")
	if gap || len(ev) != 1 || ev[0].Seq != 3 {
		t.Fatalf("since 2: %+v gap=%v", ev, gap)
	}
	if ev, gap = j.EventsSince(3, ""); gap || len(ev) != 0 {
		t.Fatalf("caught up: %d events gap=%v", len(ev), gap)
	}

	// Overflow the ring: seqs 1..3 are evicted (capacity 4, 7 recorded).
	for i := 4; i <= 7; i++ {
		j.Recordf("other", "event %d", i)
	}
	ev, gap = j.EventsSince(1, "")
	if !gap || len(ev) != 4 || ev[0].Seq != 4 {
		t.Fatalf("after eviction since 1: %d events gap=%v", len(ev), gap)
	}
	// A cursor at the eviction boundary has lost nothing.
	if _, gap = j.EventsSince(3, ""); gap {
		t.Fatal("since 3 flagged a gap; seqs 4..7 are all retained")
	}
	if j.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", j.Dropped())
	}

	// Kind filter composes with since.
	ev, _ = j.EventsSince(0, "other")
	if len(ev) != 4 {
		t.Fatalf("kind filter: %d events, want 4", len(ev))
	}
	if ev, _ = j.EventsSince(0, "k"); len(ev) != 0 {
		t.Fatalf("evicted kind still returned: %+v", ev)
	}
}
