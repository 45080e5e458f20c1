package spoofscope_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"spoofscope"
)

// The classification pipeline of the paper's Figure 3, end to end: build a
// deterministic synthetic IXP, classify a hand-crafted flow from the first
// member, and inspect the verdict.
func Example() {
	sim, err := spoofscope.NewSimulation(spoofscope.SimulationSizeSmall, 1)
	if err != nil {
		panic(err)
	}
	cls := sim.Classifier()
	member := sim.Members()[0]

	src, _ := spoofscope.ParseAddr("10.1.2.3") // RFC 1918: always bogon
	dst, _ := spoofscope.ParseAddr("198.18.0.1")
	v := cls.Classify(spoofscope.Flow{
		SrcAddr: src, DstAddr: dst,
		Packets: 1, Bytes: 60,
		Ingress: member.Port,
	})
	fmt.Println(v.Class)
	// Output: bogon
}

// Classifying the simulation's own traffic reproduces the paper's class
// structure: valid traffic dominates, and the three Invalid approaches are
// ordered Naive ⊇ Customer Cone ⊇ Full Cone.
func ExampleClassifier_Classify() {
	sim, err := spoofscope.NewSimulation(spoofscope.SimulationSizeSmall, 1)
	if err != nil {
		panic(err)
	}
	cls := sim.Classifier()
	var naive, cc, full int
	for _, f := range sim.Flows() {
		v := cls.Classify(f)
		if v.InvalidFor(spoofscope.ApproachNaive) {
			naive++
		}
		if v.InvalidFor(spoofscope.ApproachCC) {
			cc++
		}
		if v.InvalidFor(spoofscope.ApproachFull) {
			full++
		}
	}
	fmt.Println(naive >= cc && cc >= full && full > 0)
	// Output: true
}

// FilterList turns a member's inferred valid address space into the
// ingress ACL an upstream or IXP would install.
func ExampleClassifier_FilterList() {
	sim, err := spoofscope.NewSimulation(spoofscope.SimulationSizeSmall, 1)
	if err != nil {
		panic(err)
	}
	cls := sim.Classifier()
	member := sim.Members()[0]
	acl, err := cls.FilterList(member.ASN, spoofscope.ApproachCC)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(acl) > 0)
	// Output: true
}

// BogonList exposes the 14-prefix aggregated bogon reference.
func ExampleBogonList() {
	fmt.Println(len(spoofscope.BogonList()))
	// Output: 14
}

// A Table-1-style summary of one simulated day: flows per class, Invalid
// flows per inference approach (Naive ⊇ Customer Cone ⊇ Full Cone), and
// how many of the generator's intentionally spoofed flows the classifier
// flags. The labels are for evaluation only; the classifier never sees
// them.
func Example_table1() {
	sim, err := spoofscope.NewSimulation(spoofscope.SimulationSizeSmall, 42)
	if err != nil {
		panic(err)
	}
	cls := sim.Classifier()
	classes := []spoofscope.Class{
		spoofscope.ClassValid, spoofscope.ClassBogon,
		spoofscope.ClassUnrouted, spoofscope.ClassInvalid,
	}
	approaches := []spoofscope.Approach{
		spoofscope.ApproachNaive, spoofscope.ApproachCC, spoofscope.ApproachFull,
	}
	perClass := map[spoofscope.Class]int{}
	perApproach := map[spoofscope.Approach]int{}
	caught, spoofed := 0, 0
	for i, f := range sim.Flows() {
		v := cls.Classify(f)
		perClass[v.Class]++
		for _, a := range approaches {
			if v.InvalidFor(a) {
				perApproach[a]++
			}
		}
		if sim.GroundTruthSpoofed(i) {
			spoofed++
			if v.Class != spoofscope.ClassValid {
				caught++
			}
		}
	}
	for _, c := range classes {
		fmt.Printf("%-8s %5d\n", c, perClass[c])
	}
	for _, a := range approaches {
		fmt.Printf("%-8s %5d\n", a, perApproach[a])
	}
	fmt.Printf("spoofed flows caught: %d/%d\n", caught, spoofed)
	// Output:
	// valid    14539
	// bogon      195
	// unrouted  3572
	// invalid   2273
	// NAIVE     2205
	// CC        1576
	// FULL      1486
	// spoofed flows caught: 4136/4139
}

// The operator's view of §5: tally each member's sampled packets by class,
// give it a filtering verdict, and derive the Full Cone ingress ACL an
// upstream would install in front of the dirtiest one.
func Example_memberAudit() {
	sim, err := spoofscope.NewSimulation(spoofscope.SimulationSizeSmall, 99)
	if err != nil {
		panic(err)
	}
	cls := sim.Classifier()
	type audit struct{ total, bogon, unrouted, invalid uint64 }
	members := sim.Members()
	byPort := map[uint32]*audit{}
	for _, m := range members {
		byPort[m.Port] = &audit{}
	}
	for _, f := range sim.Flows() {
		a := byPort[f.Ingress]
		if a == nil {
			continue
		}
		a.total += f.Packets
		switch v := cls.Classify(f); {
		case v.Class == spoofscope.ClassBogon:
			a.bogon += f.Packets
		case v.Class == spoofscope.ClassUnrouted:
			a.unrouted += f.Packets
		case v.InvalidFor(spoofscope.ApproachFull):
			a.invalid += f.Packets
		}
	}
	dirt := func(a *audit) uint64 { return a.bogon + a.unrouted + a.invalid }
	clean, worst := 0, members[0]
	for _, m := range members {
		a := byPort[m.Port]
		if dirt(a) == 0 {
			clean++
		}
		if dirt(a) > dirt(byPort[worst.Port]) {
			worst = m
		}
	}
	a := byPort[worst.Port]
	verdict := "bogon leak only"
	if a.unrouted > 0 || a.invalid > 0 {
		verdict = "not BCP38 compliant"
	}
	acl, err := cls.FilterList(worst.ASN, spoofscope.ApproachFull)
	if err != nil {
		panic(err)
	}
	fmt.Printf("clean members: %d of %d\n", clean, len(members))
	fmt.Printf("dirtiest: %s, %d packets: %d bogon, %d unrouted, %d invalid: %s\n",
		worst.ASN, a.total, a.bogon, a.unrouted, a.invalid, verdict)
	fmt.Printf("its ingress ACL: %d prefixes, first permit %s\n", len(acl), acl[0])
	// Output:
	// clean members: 11 of 60
	// dirtiest: AS1013, 2020 packets: 24 bogon, 813 unrouted, 106 invalid: not BCP38 compliant
	// its ingress ACL: 13 prefixes, first permit 11.25.205.0/24
}

// DetectAttacks runs §7's detectors over classified traffic: random-spoofing
// floods (many sources per packet toward one victim) and NTP amplification
// campaigns, where the spoofed trigger source is the victim and the
// amplifiers' legitimate responses carry many more bytes back to it.
func ExampleClassifier_DetectAttacks() {
	sim, err := spoofscope.NewSimulation(spoofscope.SimulationSizeSmall, 7)
	if err != nil {
		panic(err)
	}
	floods, campaigns := sim.Classifier().DetectAttacks(sim.Flows())
	fmt.Printf("floods: %d, largest %d packets from %d sources\n",
		len(floods), floods[0].Packets, floods[0].UniqueSources)
	top := campaigns[0]
	fmt.Printf("NTP campaigns: %d, largest against %s via %d amplifiers\n",
		len(campaigns), top.Victim, top.Amplifiers)
	fmt.Printf("trigger %d packets, response %d packets, %.1fx the bytes\n",
		top.TriggerPackets, top.ResponsePackets, top.AmplificationRatio)
	// Output:
	// floods: 9, largest 510 packets from 510 sources
	// NTP campaigns: 2, largest against 14.54.65.71 via 90 amplifiers
	// trigger 310 packets, response 127 packets, 4.5x the bytes
}

// The live runtime as a service: flows enter through the bounded ingest
// queue, RunParallel drains them on two workers, and Checkpoint writes the
// crash-safe snapshot a restarted run resumes from (LiveRuntimeConfig.Resume,
// re-fed from the snapshot's Ingested cursor). The queue holds the whole feed
// here, so nothing sheds however fast the workers drain.
func ExampleLiveRuntime() {
	sim, err := spoofscope.NewSimulation(spoofscope.SimulationSizeSmall, 1)
	if err != nil {
		panic(err)
	}
	dir, err := os.MkdirTemp("", "spoofscope-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "run.ckpt")

	flows := sim.Flows()
	start, _ := sim.Env().Scenario.Window()
	rt, err := spoofscope.NewLiveRuntime(spoofscope.LiveRuntimeConfig{
		Classifier: sim.Classifier(),
		Members:    sim.Members(),
		Start:      start, Bucket: time.Hour,
		Queue:           spoofscope.QueueConfig{Capacity: 2 * len(flows)},
		CheckpointPath:  path,
		CheckpointEvery: 5000,
	})
	if err != nil {
		panic(err)
	}
	drained := make(chan error, 1)
	go func() { drained <- rt.RunParallel(context.Background(), 2, nil) }()
	rt.IngestBatch(flows) // a collector hands over each decoded message like this
	rt.Close()            // stop intake; the workers drain what is queued
	if err := <-drained; err != nil {
		panic(err)
	}
	if err := rt.Checkpoint(); err != nil {
		panic(err)
	}
	cp, err := spoofscope.ReadCheckpoint(path)
	if err != nil {
		panic(err)
	}
	st := rt.Stats()
	fmt.Printf("processed %d, shed %d\n", st.Processed, st.Queue.Shed)
	fmt.Printf("checkpoint: ingested %d, processed %d\n", cp.Ingested, cp.Processed)
	// Output:
	// processed 18867, shed 0
	// checkpoint: ingested 18867, processed 18867
}
