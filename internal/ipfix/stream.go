package ipfix

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// stream frames and decodes the IPFIX messages of a byte stream — a file or
// a TCP connection, where messages sit back to back and each header's length
// field is the only boundary (RFC 7011 §10.4). FileReader and the TCP
// collector's connection handler both drive one; they differ only in what
// they do with a message that frames but does not decode. The message
// buffer fits the largest message a 16-bit length can frame and the batch
// only grows, so a steady-state message allocates nothing.
type stream struct {
	r     *bufio.Reader
	dec   *Decoder
	msg   []byte // the framed message; its prefix is the header read target
	flows []Flow // the decoded batch, reused across messages
}

func newStream(r io.Reader, dec *Decoder) *stream {
	return &stream{r: bufio.NewReaderSize(r, 1<<16), dec: dec, msg: make([]byte, 1<<16)}
}

// next frames the next message and decodes it into s.flows. err is io.EOF
// at a clean end between messages, or a framing failure — a short read, an
// impossible length, a transport error — after which message boundaries are
// lost. bad is the decode error of a message that framed correctly, after
// which the stream is still in sync.
func (s *stream) next() (bad, err error) {
	// The header reads into the message buffer's prefix (a stack array
	// would escape through io.ReadFull and cost one heap allocation per
	// message); the body then lands right behind it.
	hdr := s.msg[:msgHeaderLen]
	if _, err := io.ReadFull(s.r, hdr); err != nil {
		if err == io.EOF {
			return nil, err
		}
		return nil, fmt.Errorf("ipfix: reading message header: %w", err)
	}
	total := int(binary.BigEndian.Uint16(hdr[2:]))
	if total < msgHeaderLen {
		return nil, fmt.Errorf("ipfix: bad message length %d", total)
	}
	msg := s.msg[:total]
	if _, err := io.ReadFull(s.r, msg[msgHeaderLen:]); err != nil {
		return nil, fmt.Errorf("ipfix: reading message body: %w", err)
	}
	s.flows, bad = s.dec.AppendFlows(msg, s.flows[:0])
	return bad, nil
}
