package trace

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		// nested: a pass with a child that has a child of its own
		{Name: "pass", Parent: -1, Start: 0, End: 100},
		{Name: "decode", Parent: 0, Start: 10, End: 40},
		{Name: "inner", Parent: 1, Start: 15, End: 25},
		// overlapping children: [50,80] and [70,95] cover 45, not 55
		{Name: "drain", Parent: 0, Start: 50, End: 80},
		{Name: "checkpoint", Parent: 0, Start: 70, End: 95},
		// zero children
		{Name: "lonely", Parent: -1, Start: 200, End: 230},
		// a child reaching past its parent is clipped to it
		{Name: "short", Parent: -1, Start: 300, End: 310},
		{Name: "overrun", Parent: 6, Start: 305, End: 400},
	}
	got := SelfTimes(spans)
	for name, want := range map[string]Total{
		"pass":       {Calls: 1, Duration: 100, Self: 100 - 30 - 45},
		"decode":     {Calls: 1, Duration: 30, Self: 20},
		"inner":      {Calls: 1, Duration: 10, Self: 10},
		"drain":      {Calls: 1, Duration: 30, Self: 30},
		"checkpoint": {Calls: 1, Duration: 25, Self: 25},
		"lonely":     {Calls: 1, Duration: 30, Self: 30},
		"short":      {Calls: 1, Duration: 10, Self: 5},
		"overrun":    {Calls: 1, Duration: 95, Self: 95},
	} {
		if got[name] != want {
			t.Errorf("%s: %+v, want %+v", name, got[name], want)
		}
	}
}

func TestRecorder(t *testing.T) {
	var off *Recorder
	if i := off.Begin("x", 1, -1); i != -1 {
		t.Fatalf("nil recorder returned span %d", i)
	}
	off.End(-1)
	off.Add("x", 1, -1, 0, 5)
	off.Count("x", 1)
	if off.Spans() != nil || off.Now() != 0 {
		t.Fatal("nil recorder recorded something")
	}

	r := NewRecorder()
	pass := r.Begin("pass", 7, -1)
	child := r.Begin("call", 7, pass)
	r.End(child)
	r.Add("summed", 7, pass, r.Now(), 1000)
	r.End(pass)
	r.Count("flows", 64)
	r.Count("flows", 64)
	spans := r.Spans()
	if len(spans) != 3 || spans[1].Parent != pass || spans[1].ID != 7 || spans[2].End-spans[2].Start != 1000 {
		t.Fatalf("recorded %+v", spans)
	}
	if spans[0].End < spans[1].End {
		t.Fatalf("parent ended at %d, before its child at %d", spans[0].End, spans[1].End)
	}

	path := filepath.Join(t.TempDir(), "out", "trace.json")
	if err := r.WriteFile(path, "w"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f file
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.Workload != "w" || len(f.Spans) != 3 || f.Counts["flows"] != 128 || f.Totals["pass"].Calls != 1 {
		t.Fatalf("wrote %+v", f)
	}
}
