package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"orchestra/internal/codec"
)

// Wire format (both directions): a 4-byte little-endian frame length, then
// the frame. Every frame starts with protocolVersion.
//
//	request:  version | uvarint len, From | uvarint len, Method | uvarint TimeoutNanos | body...
//	response: version | status (statusOK, statusErr) | body... or error text...
//
// The body is the rest of the frame: no length prefix, and the decoded
// Request.Body aliases the frame. The head is read with codec.Reader, so a
// varint must be minimal and a decoded request re-encodes to its frame. TimeoutNanos is the budget remaining on
// the caller's context deadline when the request was sent (0 = none); the
// server applies it as a relative timeout so handlers see (approximately)
// the deadline the client enforces on the connection. A duration travels
// instead of the absolute deadline because client and server clocks may
// disagree — an absolute wall-clock deadline would shift by the skew and a
// server clock running ahead would expire every handler context on arrival.
//
// Both ends of a connection must speak the same version: a server answers a
// request of another version, or one it cannot parse, with an error frame
// and hangs up, so the caller gets a permanent error rather than a torn
// connection it would retry.
const protocolVersion = 1

const (
	statusOK  = 0
	statusErr = 1
)

const maxFrame = 64 << 20

var (
	errBadRequest  = errors.New("rpc: bad request frame")
	errBadResponse = errors.New("rpc: bad response frame")

	// The two response heads; writers copy them, nothing mutates them.
	okHead  = []byte{protocolVersion, statusOK}
	errHead = []byte{protocolVersion, statusErr}
)

// appendRequestHead appends a request frame up to, not including, its body.
func appendRequestHead(dst []byte, from, method string, timeoutNanos int64) []byte {
	dst = codec.AppendStr(codec.AppendStr(append(dst, protocolVersion), from), method)
	return binary.AppendUvarint(dst, uint64(timeoutNanos))
}

// decodeRequest parses a request frame; the returned Body aliases frame.
func decodeRequest(frame []byte) (req Request, timeoutNanos int64, err error) {
	b, err := versioned(frame, errBadRequest)
	if err != nil {
		return Request{}, 0, err
	}
	r := codec.NewReader(b)
	req.From, req.Method = r.Str(), r.Str()
	t := r.Uvarint()
	if r.Err() != nil || t > math.MaxInt64 {
		return Request{}, 0, errBadRequest
	}
	req.Body = r.Rest()
	return req, int64(t), nil
}

// decodeResponse parses a response frame into the handler's reply or the
// handler's error (remote); err reports a frame this end cannot read.
func decodeResponse(frame []byte) (body []byte, remote, err error) {
	b, err := versioned(frame, errBadResponse)
	if err != nil {
		return nil, nil, err
	}
	if len(b) == 0 {
		return nil, nil, errBadResponse
	}
	switch b[0] {
	case statusOK:
		if len(b) > 1 {
			body = b[1:]
		}
		return body, nil, nil
	case statusErr:
		return nil, errors.New(string(b[1:])), nil
	default:
		return nil, nil, fmt.Errorf("rpc: response status %d", b[0])
	}
}

// versioned checks a frame's version byte and returns what follows it.
func versioned(frame []byte, empty error) ([]byte, error) {
	if len(frame) == 0 {
		return nil, empty
	}
	if frame[0] != protocolVersion {
		return nil, fmt.Errorf("rpc: protocol version %d, want %d", frame[0], protocolVersion)
	}
	return frame[1:], nil
}
