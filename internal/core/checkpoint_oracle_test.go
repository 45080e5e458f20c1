package core

// The checkpoint codec as it stood before the bulk codec replaced it: one
// bufio call and one stack array per primitive. It lost its benchmark (every
// field was a heap object) and lives on here as the oracle the production
// codec is tested against — same bytes out, same state in.

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"time"

	"spoofscope/internal/bgp"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/netx"
)

type oracleWriter struct {
	w   *bufio.Writer
	err error
}

func (w *oracleWriter) u8(v uint8) {
	if w.err == nil {
		w.err = w.w.WriteByte(v)
	}
}

func (w *oracleWriter) u16(v uint16) {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], v)
	w.bytes(b[:])
}

func (w *oracleWriter) u32(v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	w.bytes(b[:])
}

func (w *oracleWriter) u64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	w.bytes(b[:])
}

func (w *oracleWriter) i64(v int64) { w.u64(uint64(v)) }

func (w *oracleWriter) bytes(b []byte) {
	if w.err == nil {
		_, w.err = w.w.Write(b)
	}
}

func (w *oracleWriter) counter(c Counter) {
	w.u64(c.Flows)
	w.u64(c.Packets)
	w.u64(c.Bytes)
}

type oracleReader struct {
	r   *bufio.Reader
	err error
}

func (r *oracleReader) bytes(b []byte) {
	if r.err == nil {
		_, r.err = io.ReadFull(r.r, b)
	}
}

func (r *oracleReader) u8() uint8 {
	var b [1]byte
	r.bytes(b[:])
	return b[0]
}

func (r *oracleReader) u16() uint16 {
	var b [2]byte
	r.bytes(b[:])
	return binary.BigEndian.Uint16(b[:])
}

func (r *oracleReader) u32() uint32 {
	var b [4]byte
	r.bytes(b[:])
	return binary.BigEndian.Uint32(b[:])
}

func (r *oracleReader) u64() uint64 {
	var b [8]byte
	r.bytes(b[:])
	return binary.BigEndian.Uint64(b[:])
}

func (r *oracleReader) i64() int64 { return int64(r.u64()) }

func (r *oracleReader) counter() Counter {
	return Counter{Flows: r.u64(), Packets: r.u64(), Bytes: r.u64()}
}

// count validates a declared element count against a sanity cap before the
// decoder allocates for it — a corrupt count must not demand gigabytes.
func (r *oracleReader) count(what string) int {
	n := r.u32()
	const maxCount = 1 << 26
	if n > maxCount && r.err == nil {
		r.err = fmt.Errorf("core: checkpoint %s count %d exceeds sanity cap", what, n)
	}
	return int(n)
}

// oraclePreallocCap clamps the capacity hint the decoder passes to make() for a
// declared element count. Real inputs get their exact size; an adversarial
// count below the sanity cap but far beyond the actual input gets a small
// buffer that grows only as elements actually decode — every element read
// consumes input bytes and sets r.err at EOF, so decoder memory stays
// proportional to input length, never to a forged count.
const oracleMaxPrealloc = 4096

func oraclePreallocCap(n int) int {
	if n > oracleMaxPrealloc {
		return oracleMaxPrealloc
	}
	return n
}

// ascending latches an error unless key strictly follows prev, the key before
// it in its section (i is key's index there), and stores key in prev. The
// encoder writes every section sorted; a repeated key is refused rather than
// folded twice.
func oracleAscending[K cmp.Ordered](r *oracleReader, what string, i int, prev *K, key K) {
	if r.err == nil && i > 0 && key <= *prev {
		r.err = fmt.Errorf("core: checkpoint %s %v does not follow %v", what, key, *prev)
	}
	*prev = key
}

func oracleSortedAddrs[V any](m map[netx.Addr]V) []netx.Addr {
	out := make([]netx.Addr, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// oracleEncodeCheckpoint writes cp to w in the versioned binary format. Equal
// logical state encodes to identical bytes regardless of map iteration
// order.
func oracleEncodeCheckpoint(out io.Writer, cp *Checkpoint) error {
	w := &oracleWriter{w: bufio.NewWriter(out)}
	w.bytes([]byte(checkpointMagic))
	w.u16(checkpointVersion)
	w.u64(cp.Ingested)
	w.u64(cp.Queued)
	w.u64(cp.Shed)
	w.u64(cp.Processed)
	w.u64(uint64(cp.Epoch))
	w.u64(cp.Swaps)
	w.u64(cp.StaleVerdicts)
	if cp.Degraded {
		w.u8(1)
	} else {
		w.u8(0)
	}

	a := cp.Agg
	w.i64(a.start.UnixNano())
	w.i64(int64(a.bucket))
	w.counter(a.GrandTotal)
	w.u64(a.UnknownPorts)
	for c := TrafficClass(0); c < numTrafficClasses; c++ {
		w.counter(a.Total[c])
	}

	// Per-member stats, sorted by port.
	ports := make([]uint32, 0, len(a.members))
	for p := range a.members {
		ports = append(ports, p)
	}
	sort.Slice(ports, func(i, j int) bool { return ports[i] < ports[j] })
	w.u32(uint32(len(ports)))
	for _, port := range ports {
		m := a.members[port]
		w.u32(port)
		w.u32(uint32(m.ASN))
		w.counter(m.Total)
		for c := TrafficClass(0); c < numTrafficClasses; c++ {
			w.counter(m.ByClass[c])
		}
		w.u64(m.RouterIPInvalid)
		origins := make([]bgp.ASN, 0, len(m.InvalidOrigins))
		for o := range m.InvalidOrigins {
			origins = append(origins, o)
		}
		sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
		w.u32(uint32(len(origins)))
		for _, o := range origins {
			w.u32(uint32(o))
			w.u64(m.InvalidOrigins[o])
		}
	}

	// Time series per class, in class order.
	var series []TrafficClass
	for c, s := range a.Series {
		if len(s) > 0 {
			series = append(series, TrafficClass(c))
		}
	}
	w.u32(uint32(len(series)))
	for _, c := range series {
		s := a.Series[c]
		w.u32(uint32(c))
		w.u32(uint32(len(s)))
		for _, v := range s {
			w.u64(v)
		}
	}

	// Size histograms per class, sizes sorted. SizeTab iterates classes and
	// sizes in ascending order — the order the map-backed encoding sorted
	// into — so the bytes are unchanged.
	w.u32(uint32(a.SizeHist.Classes()))
	for _, c := range a.SizeHist.classList(nil) {
		w.u32(uint32(c))
		w.u32(uint32(a.SizeHist.ClassLen(c)))
		a.SizeHist.RangeClass(c, func(s int, n uint64) {
			w.i64(int64(s))
			w.u64(n)
		})
	}

	// Port mix, sorted by (class, proto, dir, port) — PortTab's natural
	// iteration order.
	w.u32(uint32(a.Ports.Len()))
	a.Ports.Range(func(k PortKey, v uint64) {
		w.u32(uint32(k.Class))
		w.u8(k.Proto)
		w.u8(k.Dir)
		w.u16(k.Port)
		w.u64(v)
	})

	// /8 address-structure bins.
	writeSlash8 := func(bins [numTrafficClasses]*[256]uint64) {
		n := 0
		for _, b := range bins {
			if b != nil {
				n++
			}
		}
		w.u32(uint32(n))
		for c, b := range bins {
			if b == nil {
				continue
			}
			w.u32(uint32(c))
			for _, v := range b {
				w.u64(v)
			}
		}
	}
	writeSlash8(a.Slash8Src)
	writeSlash8(a.Slash8Dst)

	// Destination fan-in per tracked class.
	var tracked []TrafficClass
	for c, m := range a.FanIn {
		if m != nil {
			tracked = append(tracked, TrafficClass(c))
		}
	}
	w.u32(uint32(len(tracked)))
	for _, c := range tracked {
		m := a.FanIn[c]
		w.u32(uint32(c))
		w.u32(uint32(len(m)))
		for _, dst := range oracleSortedAddrs(m) {
			ds := m[dst]
			w.u32(uint32(dst))
			w.u64(ds.Packets)
			w.u64(ds.SrcOverflow)
			w.u32(uint32(ds.SrcCount()))
			if ds.Srcs != nil {
				for _, src := range oracleSortedAddrs(ds.Srcs) {
					w.u32(uint32(src))
				}
			} else {
				// Inline single source (sorted order is trivial).
				ds.EachSrc(func(src netx.Addr) { w.u32(uint32(src)) })
			}
		}
	}

	// NTP trigger/response pair maps and series.
	writePairs := func(m map[netx.Addr]map[netx.Addr]uint64) {
		w.u32(uint32(len(m)))
		for _, outer := range oracleSortedAddrs(m) {
			inner := m[outer]
			w.u32(uint32(outer))
			w.u32(uint32(len(inner)))
			for _, in := range oracleSortedAddrs(inner) {
				w.u32(uint32(in))
				w.u64(inner[in])
			}
		}
	}
	writePairs(a.TriggerPairs)
	writePairs(a.ResponsePairs)
	writeSeries := func(s []Counter) {
		w.u32(uint32(len(s)))
		for _, c := range s {
			w.counter(c)
		}
	}
	writeSeries(a.TriggerSeries)
	writeSeries(a.ResponseSeries)

	if w.err != nil {
		return fmt.Errorf("core: encoding checkpoint: %w", w.err)
	}
	return w.w.Flush()
}

// oracleClass latches an error unless c, a class key read in a single-class
// section, is one primaryClass yields. It and oracleSome refuse what
// Aggregator.Add cannot produce.
func oracleClass(r *oracleReader, section string, c TrafficClass) {
	if r.err == nil && c != TCRegular && c != TCBogon && c != TCUnrouted && c != TCInvalidFull {
		r.err = fmt.Errorf("core: checkpoint %s class %d is not a primary class", section, c)
	}
}

// oracleSome latches an error unless class c's entry in section holds n > 0
// elements.
func oracleSome(r *oracleReader, section string, c TrafficClass, n int) {
	if r.err == nil && n == 0 {
		r.err = fmt.Errorf("core: checkpoint %s of class %d has no elements", section, c)
	}
}

// oracleWithin latches an error unless a series of n buckets fits
// maxSeriesBuckets.
func oracleWithin(r *oracleReader, section string, n int) {
	if r.err == nil && n > maxSeriesBuckets {
		r.err = fmt.Errorf("core: checkpoint %s has %d buckets, more than %d", section, n, maxSeriesBuckets)
	}
}

// oracleDecodeCheckpoint reads a checkpoint previously written by
// oracleEncodeCheckpoint, rejecting unknown magic or versions.
func oracleDecodeCheckpoint(in io.Reader) (*Checkpoint, error) {
	r := &oracleReader{r: bufio.NewReader(in)}
	var magic [4]byte
	r.bytes(magic[:])
	if r.err == nil && string(magic[:]) != checkpointMagic {
		return nil, fmt.Errorf("core: not a checkpoint (magic %q)", magic)
	}
	if v := r.u16(); r.err == nil && v != checkpointVersion {
		return nil, fmt.Errorf("core: unsupported checkpoint version %d", v)
	}
	cp := &Checkpoint{
		Ingested:      r.u64(),
		Queued:        r.u64(),
		Shed:          r.u64(),
		Processed:     r.u64(),
		Epoch:         Epoch(r.u64()),
		Swaps:         r.u64(),
		StaleVerdicts: r.u64(),
	}
	switch d := r.u8(); d {
	case 0:
	case 1:
		cp.Degraded = true
	default:
		if r.err == nil {
			return nil, fmt.Errorf("core: checkpoint degraded flag %d is not a bool", d)
		}
	}

	start := time.Unix(0, r.i64()).UTC()
	bucket := time.Duration(r.i64())
	a := NewAggregator(start, bucket)
	cp.Agg = a
	a.GrandTotal = r.counter()
	a.UnknownPorts = r.u64()
	for c := TrafficClass(0); c < numTrafficClasses; c++ {
		a.Total[c] = r.counter()
	}

	nMembers := r.count("member")
	var port uint32
	for i := 0; i < nMembers && r.err == nil; i++ {
		oracleAscending(r, "member port", i, &port, r.u32())
		m := &MemberStats{Port: port, ASN: bgp.ASN(r.u32())}
		m.Total = r.counter()
		for c := TrafficClass(0); c < numTrafficClasses; c++ {
			m.ByClass[c] = r.counter()
		}
		m.RouterIPInvalid = r.u64()
		nOrigins := r.count("origin")
		m.InvalidOrigins = make(map[bgp.ASN]uint64, oraclePreallocCap(nOrigins))
		var o bgp.ASN
		for j := 0; j < nOrigins && r.err == nil; j++ {
			oracleAscending(r, "origin", j, &o, bgp.ASN(r.u32()))
			m.InvalidOrigins[o] = r.u64()
		}
		a.members[port] = m
	}

	nSeries := r.count("series")
	var c TrafficClass
	for i := 0; i < nSeries && r.err == nil; i++ {
		oracleAscending(r, "series class", i, &c, TrafficClass(r.u32()))
		n := r.count("series bucket")
		oracleClass(r, "series", c)
		oracleSome(r, "series", c, n)
		oracleWithin(r, "series", n)
		if r.err != nil {
			break
		}
		s := make([]uint64, 0, oraclePreallocCap(n))
		for j := 0; j < n && r.err == nil; j++ {
			s = append(s, r.u64())
		}
		a.Series[c] = s
	}

	// The pages' own add stands in for assignment: with every key in a
	// section distinct, adding into a fresh table is assigning.
	nHists := r.count("size histogram")
	for i := 0; i < nHists && r.err == nil; i++ {
		oracleAscending(r, "size histogram class", i, &c, TrafficClass(r.u32()))
		n := r.count("size bin")
		oracleClass(r, "size histogram", c)
		oracleSome(r, "size histogram", c, n)
		var size int
		for j := 0; j < n && r.err == nil; j++ {
			oracleAscending(r, "size bin", j, &size, int(r.i64()))
			if pkts := r.u64(); r.err == nil {
				a.SizeHist.page(c).add(size, pkts)
			}
		}
	}

	nPorts := r.count("port-mix entry")
	var k PortKey
	for i := 0; i < nPorts && r.err == nil; i++ {
		next := PortKey{
			Class: TrafficClass(r.u32()),
			Proto: r.u8(),
			Dir:   r.u8(),
			Port:  r.u16(),
		}
		if r.err == nil && i > 0 && cmp.Or(cmp.Compare(next.Class, k.Class), cmp.Compare(next.Proto, k.Proto),
			cmp.Compare(next.Dir, k.Dir), cmp.Compare(next.Port, k.Port)) <= 0 {
			r.err = fmt.Errorf("core: checkpoint port-mix key %v does not follow %v", next, k)
		}
		k = next
		oracleClass(r, "port-mix", k.Class)
		if r.err == nil && (k.Proto != ipfix.ProtoTCP && k.Proto != ipfix.ProtoUDP || k.Dir > 1) {
			r.err = fmt.Errorf("core: checkpoint port-mix key %v is not a TCP or UDP destination or source port", k)
		}
		if pkts := r.u64(); r.err == nil {
			a.Ports.pair(k.Class, protoIdx(k.Proto))[k.Dir].add(k.Port, pkts)
		}
	}

	readSlash8 := func(m *[numTrafficClasses]*[256]uint64) {
		n := r.count("/8 class")
		var c TrafficClass
		for i := 0; i < n && r.err == nil; i++ {
			oracleAscending(r, "/8 class", i, &c, TrafficClass(r.u32()))
			var bins [256]uint64
			for j := range bins {
				bins[j] = r.u64()
			}
			if oracleClass(r, "/8", c); r.err == nil {
				m[c] = &bins
			}
		}
	}
	readSlash8(&a.Slash8Src)
	readSlash8(&a.Slash8Dst)

	nFanIn := r.count("fan-in class")
	if r.err == nil && nFanIn != 3 {
		r.err = fmt.Errorf("core: checkpoint fan-in section names %d classes, not Bogon, Unrouted and Invalid-FULL", nFanIn)
	}
	for i := 0; i < nFanIn && r.err == nil; i++ {
		oracleAscending(r, "fan-in class", i, &c, TrafficClass(r.u32()))
		nDst := r.count("fan-in destination")
		if r.err == nil && c != TCBogon && c != TCUnrouted && c != TCInvalidFull {
			r.err = fmt.Errorf("core: checkpoint fan-in class %d is not Bogon, Unrouted or Invalid-FULL", c)
		}
		m := make(map[netx.Addr]*DstStats, oraclePreallocCap(nDst))
		var dst netx.Addr
		for j := 0; j < nDst && r.err == nil; j++ {
			oracleAscending(r, "fan-in destination", j, &dst, netx.Addr(r.u32()))
			ds := &DstStats{Packets: r.u64(), SrcOverflow: r.u64()}
			nSrc := r.count("fan-in source")
			if nSrc == 1 {
				// Match the fresh-aggregator representation: a single
				// source stays inline, no map.
				ds.src1, ds.has1 = netx.Addr(r.u32()), true
			} else if nSrc > 0 {
				ds.Srcs = make(map[netx.Addr]struct{}, oraclePreallocCap(nSrc))
				var src netx.Addr
				for k := 0; k < nSrc && r.err == nil; k++ {
					oracleAscending(r, "fan-in source", k, &src, netx.Addr(r.u32()))
					ds.Srcs[src] = struct{}{}
				}
			}
			m[dst] = ds
		}
		if r.err == nil {
			a.FanIn[c] = m
		}
	}

	readPairs := func(dst map[netx.Addr]map[netx.Addr]uint64) {
		n := r.count("pair")
		var outer netx.Addr
		for i := 0; i < n && r.err == nil; i++ {
			oracleAscending(r, "pair", i, &outer, netx.Addr(r.u32()))
			nInner := r.count("pair entry")
			inner := make(map[netx.Addr]uint64, oraclePreallocCap(nInner))
			var in netx.Addr
			for j := 0; j < nInner && r.err == nil; j++ {
				oracleAscending(r, "pair entry", j, &in, netx.Addr(r.u32()))
				inner[in] = r.u64()
			}
			dst[outer] = inner
		}
	}
	readPairs(a.TriggerPairs)
	readPairs(a.ResponsePairs)
	readSeries := func() []Counter {
		n := r.count("NTP series bucket")
		if oracleWithin(r, "NTP series", n); n == 0 || r.err != nil {
			return nil
		}
		s := make([]Counter, 0, oraclePreallocCap(n))
		for i := 0; i < n && r.err == nil; i++ {
			s = append(s, r.counter())
		}
		return s
	}
	a.TriggerSeries = readSeries()
	a.ResponseSeries = readSeries()

	if r.err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint: %w", r.err)
	}
	return cp, nil
}

// The map-style accessors the oracle codec was written against. The bulk
// codec works on whole pages and has no use for them.

// Classes counts classes with a histogram.
func (t *SizeTab) Classes() int { return len(t.classList(nil)) }

// ClassLen counts recorded sizes for one class.
func (t *SizeTab) ClassLen(c TrafficClass) int {
	p := t.pages[c]
	if p == nil {
		return 0
	}
	return p.len()
}
