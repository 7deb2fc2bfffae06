package rpc_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"orchestra/internal/rpc"
	"orchestra/internal/store"
)

// TestTCPRejectsForeignFrame: a request in the gob envelope the transport
// spoke before its own format gets an answer, not a silent hang-up. The
// caller's error must be permanent — an EOF would be classified transient,
// and a client with a retry policy would spend its whole budget on every
// call against a peer that speaks another format.
func TestTCPRejectsForeignFrame(t *testing.T) {
	srv := rpc.NewServer(rpc.HandlerFunc(func(_ context.Context, req rpc.Request) ([]byte, error) {
		return req.Body, nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	// The parent's envelope, field for field.
	type wireRequest struct {
		From         string
		Method       string
		Body         []byte
		TimeoutNanos int64
	}
	var gobFrame bytes.Buffer
	if err := gob.NewEncoder(&gobFrame).Encode(&wireRequest{From: "old", Method: "store.begin", Body: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(gobFrame.Len()))
	if _, err := conn.Write(append(hdr[:], gobFrame.Bytes()...)); err != nil {
		t.Fatal(err)
	}

	br := bufio.NewReader(conn)
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		t.Fatalf("no response frame to a foreign request: %v", err)
	}
	frame := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(br, frame); err != nil {
		t.Fatal(err)
	}
	_, remote, err := rpc.DecodeResponse(frame)
	if err != nil {
		t.Fatalf("response frame unreadable: %v", err)
	}
	if remote == nil || !strings.Contains(remote.Error(), "protocol version") {
		t.Fatalf("answer to a foreign request: %v, want a protocol-version error", remote)
	}
	if store.IsTransient(remote) {
		t.Errorf("%v is classified transient; a retrying client would spin on it", remote)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Errorf("server kept the connection after a foreign frame: %v", err)
	}
}
