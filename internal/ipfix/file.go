package ipfix

import (
	"bufio"
	"io"
	"time"
)

// FileWriter streams flows as concatenated IPFIX messages: into a file, or
// onto a TCPExporter's connection.
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
type FileReader struct{ s *stream }

// NewFileReader returns a reader over r.
func NewFileReader(r io.Reader) *FileReader {
	return &FileReader{s: newStream(r, NewDecoder())}
}

// NextBatch returns the flows of the next message containing data records.
// It returns io.EOF at end of stream, and a message that does not decode as
// an error: a replay reports a corrupt file rather than classify part of it.
// The returned slice is reused across calls; copy it to retain.
func (fr *FileReader) NextBatch() ([]Flow, error) {
	for {
		switch bad, err := fr.s.next(); {
		case err != nil:
			return nil, err
		case bad != nil:
			return nil, bad
		case len(fr.s.flows) > 0:
			return fr.s.flows, nil
		}
		// Template-only message: keep reading.
	}
}

// Reset repoints the reader at a new stream while keeping the decoder's
// template state and every grow-only decode scratch buffer, so replaying
// many streams through one reader allocates nothing after the first.
func (fr *FileReader) Reset(r io.Reader) { fr.s.r.Reset(r) }

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
	st := CollectorStats{Flows: fr.s.dec.RecordsDecoded}
	st.addDecoder(fr.s.dec)
	return st
}
