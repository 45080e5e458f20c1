package ipfix

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// FileWriter streams flows into an IPFIX file (concatenated messages).
type FileWriter struct {
	w   *bufio.Writer
	enc *Encoder
	err error
}

// NewFileWriter returns a writer exporting under the given domain ID.
func NewFileWriter(w io.Writer, domain uint32) *FileWriter {
	return &FileWriter{w: bufio.NewWriterSize(w, 1<<16), enc: NewEncoder(domain)}
}

// Write appends flows, framing them into messages stamped exportTime.
func (fw *FileWriter) Write(exportTime time.Time, flows []Flow) error {
	if fw.err != nil {
		return fw.err
	}
	for _, msg := range fw.enc.Encode(exportTime, flows) {
		if _, err := fw.w.Write(msg); err != nil {
			fw.err = err
			return err
		}
	}
	return nil
}

// Flush flushes buffered data.
func (fw *FileWriter) Flush() error {
	if fw.err != nil {
		return fw.err
	}
	return fw.w.Flush()
}

// FileReader reads an IPFIX file written by FileWriter (or any stream of
// concatenated IPFIX messages).
type FileReader struct {
	r   *bufio.Reader
	dec *Decoder
	buf []Flow
	msg []byte // grow-only message scratch: zero allocations per message in steady state
}

// NewFileReader returns a reader over r.
func NewFileReader(r io.Reader) *FileReader {
	return &FileReader{r: bufio.NewReaderSize(r, 1<<16), dec: NewDecoder(),
		msg: make([]byte, 4096)}
}

// NextBatch returns the flows of the next message containing data records.
// It returns io.EOF at end of stream. The returned slice is reused across
// calls; copy it to retain.
func (fr *FileReader) NextBatch() ([]Flow, error) {
	for {
		// The header reads into the scratch buffer's prefix (a stack array
		// would escape through io.ReadFull and cost one heap allocation per
		// message); the body then lands right behind it.
		hdr := fr.msg[:msgHeaderLen]
		if _, err := io.ReadFull(fr.r, hdr); err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return nil, fmt.Errorf("ipfix: truncated message: %w", err)
			}
			return nil, err
		}
		total := int(binary.BigEndian.Uint16(hdr[2:]))
		if total < msgHeaderLen {
			return nil, fmt.Errorf("ipfix: bad message length %d", total)
		}
		if cap(fr.msg) < total {
			grown := make([]byte, total)
			copy(grown, hdr)
			fr.msg = grown
		}
		msg := fr.msg[:total]
		if _, err := io.ReadFull(fr.r, msg[msgHeaderLen:]); err != nil {
			return nil, fmt.Errorf("ipfix: truncated message body: %w", err)
		}
		var err error
		fr.buf, err = fr.dec.AppendFlows(msg, fr.buf[:0])
		if err != nil {
			return nil, err
		}
		if len(fr.buf) > 0 {
			return fr.buf, nil
		}
		// Template-only message: keep reading.
	}
}

// Reset repoints the reader at a new stream while keeping the decoder's
// template state and every grow-only decode scratch buffer, so replaying
// many streams through one reader allocates nothing after the first.
func (fr *FileReader) Reset(r io.Reader) { fr.r.Reset(r) }

// ForEachBatch streams the file one decoded message at a time: fn receives
// each message's flows as a single batch — the zero-copy hand-off a runtime's
// IngestBatch wants. The slice is the reader's reused scratch, valid only for
// the duration of the call; copy or queue by value to retain. It stops early
// if fn returns false.
func (fr *FileReader) ForEachBatch(fn func([]Flow) bool) error {
	for {
		batch, err := fr.NextBatch()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if !fn(batch) {
			return nil
		}
	}
}

// CollectorStats reports the reader's decode counters on the same struct
// the live collectors use, so file replays and network feeds share one
// health-reporting path. Transport-level fields (Connections, Disconnects)
// stay zero: a file has no transport.
func (fr *FileReader) CollectorStats() CollectorStats {
	return CollectorStats{
		Flows:          fr.dec.RecordsDecoded,
		Messages:       fr.dec.Messages,
		RecordsDecoded: fr.dec.RecordsDecoded,
		RecordsSkipped: fr.dec.RecordsSkipped,
	}
}

// Stats exposes decoder statistics.
//
// Deprecated: use CollectorStats, which carries the same counters on the
// struct shared with the live collectors.
func (fr *FileReader) Stats() (messages, decoded, skipped int) {
	st := fr.CollectorStats()
	return st.Messages, st.RecordsDecoded, st.RecordsSkipped
}
