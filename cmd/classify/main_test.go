package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"spoofscope/internal/bgp"
	"spoofscope/internal/core"
	"spoofscope/internal/flowgen"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/netx"
	"spoofscope/internal/scenario"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadMembers(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "members.csv",
		"port,asn,type\n1,65001,NSP\n2,65002,ISP\n")
	members, err := readMembers(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 2 {
		t.Fatalf("members = %d", len(members))
	}
	if members[0].Port != 1 || members[0].ASN != 65001 {
		t.Fatalf("member[0] = %+v", members[0])
	}
}

func TestReadMembersRejectsBadRows(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "members.csv", "port,asn,type\nnot-a-port,65001,NSP\n")
	if _, err := readMembers(path); err == nil {
		t.Fatal("bad port accepted")
	}
	path = writeFile(t, dir, "members2.csv", "port,asn,type\n1,not-an-asn,NSP\n")
	if _, err := readMembers(path); err == nil {
		t.Fatal("bad ASN accepted")
	}
	if _, err := readMembers(filepath.Join(dir, "missing.csv")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestReadRouters(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "routers.txt", "192.0.2.1\n198.51.100.254\n")
	set, err := readRouters(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 {
		t.Fatalf("routers = %d", len(set))
	}
	if !set.Contains(netx.MustParseAddr("192.0.2.1")) {
		t.Fatal("router missing")
	}
	if set.Contains(netx.MustParseAddr("10.0.0.1")) {
		t.Fatal("phantom router")
	}
}

func TestReadRoutersRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "routers.txt", "not-an-ip\n")
	if _, err := readRouters(path); err == nil {
		t.Fatal("garbage router accepted")
	}
}

// TestFeedResumesMidMessage: the feed hands the runtime whole decoded
// messages, but a checkpoint's cursor counts flows and may fall inside one.
// A run resumed from such a checkpoint must skip exactly the flows it
// accounts for — the head of the message the cursor falls in, not the whole
// message — and finish with a checkpoint byte-identical to an uninterrupted
// run's, sequential and parallel alike.
func TestFeedResumesMidMessage(t *testing.T) {
	s, err := scenario.Build(scenario.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var mrt bytes.Buffer
	if err := s.WriteMRT(&mrt); err != nil {
		t.Fatal(err)
	}
	rib := bgp.NewRIB()
	if err := rib.LoadMRT(&mrt); err != nil {
		t.Fatal(err)
	}
	var members []core.MemberInfo
	for _, m := range s.Members {
		members = append(members, core.MemberInfo{ASN: m.ASN, Port: m.Port})
	}
	pipeline, err := core.NewPipeline(rib, members, core.Options{Orgs: s.Orgs().MultiASGroups()})
	if err != nil {
		t.Fatal(err)
	}
	var flows []ipfix.Flow
	flowgen.New(s, flowgen.DefaultConfig()).Generate(func(f ipfix.Flow, _ flowgen.Label) {
		if len(flows) < 4000 {
			flows = append(flows, f)
		}
	})
	var file bytes.Buffer
	fw := ipfix.NewFileWriter(&file, 1)
	if err := fw.Write(time.Unix(0, 0), flows); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	perMessage := 0
	if err := ipfix.NewFileReader(bytes.NewReader(file.Bytes())).ForEachBatch(func(b []ipfix.Flow) bool {
		perMessage = len(b)
		return false
	}); err != nil {
		t.Fatal(err)
	}
	cut := 40*perMessage + perMessage/2 // inside the 41st message
	if perMessage < 2 || cut >= len(flows) {
		t.Fatalf("%d flows in %d-flow messages leave no mid-message cursor", len(flows), perMessage)
	}

	newRuntime := func(resume *core.Checkpoint) *core.Runtime {
		rt, err := core.NewRuntime(core.RuntimeConfig{
			Pipeline: pipeline,
			Start:    time.Unix(0, 0).UTC(), Bucket: 1 << 62,
			Queue:  core.QueueConfig{Capacity: 8192},
			Resume: resume,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	replay := func(rt *core.Runtime, skip uint64, workers int) []byte {
		fr := ipfix.NewFileReader(bytes.NewReader(file.Bytes()))
		if interrupted, err := runFeed(context.Background(), fr, rt, skip, workers, 0); err != nil || interrupted {
			t.Fatalf("runFeed: interrupted=%v err=%v", interrupted, err)
		}
		var cp bytes.Buffer
		if err := rt.WriteCheckpoint(&cp); err != nil {
			t.Fatal(err)
		}
		return cp.Bytes()
	}

	for _, workers := range []int{0, 2} {
		want := replay(newRuntime(nil), 0, workers)

		// The interrupted run: intake closes after exactly cut flows.
		first := newRuntime(nil)
		go func() {
			first.IngestBatchWait(flows[:cut])
			first.Close()
		}()
		if err := first.Run(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
		var mid bytes.Buffer
		if err := first.WriteCheckpoint(&mid); err != nil {
			t.Fatal(err)
		}
		cp, err := core.DecodeCheckpointBytes(mid.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if cp.Ingested != uint64(cut) {
			t.Fatalf("interrupted checkpoint cursor = %d, want %d", cp.Ingested, cut)
		}

		if got := replay(newRuntime(cp), cp.Ingested, workers); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: run resumed at flow %d (message size %d) differs from the uninterrupted run",
				workers, cut, perMessage)
		}
	}
}
