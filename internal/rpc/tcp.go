package rpc

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Wire format (both directions): 4-byte little-endian frame length, then
// the frame. Request frames are gob-encoded wireRequest; response frames
// are gob-encoded wireResponse.

type wireRequest struct {
	From   string
	Method string
	Body   []byte
	// TimeoutNanos is the budget remaining on the caller's context deadline
	// when the request was sent (0 = none); the server applies it as a
	// relative timeout so handlers see (approximately) the deadline the
	// client enforces on the connection. A duration travels instead of the
	// absolute deadline because client and server clocks may disagree — an
	// absolute wall-clock deadline would shift by the skew and a server
	// clock running ahead would expire every handler context on arrival.
	TimeoutNanos int64
}

type wireResponse struct {
	Body []byte
	Err  string
}

const maxFrame = 64 << 20

// Server serves RPC requests over TCP.
type Server struct {
	handler Handler
	ln      net.Listener
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closed  bool
	wg      sync.WaitGroup
}

// NewServer returns a server dispatching to h.
func NewServer(h Handler) *Server {
	return &Server{handler: h, conns: make(map[net.Conn]struct{})}
}

// Listen binds the address ("host:port"; ":0" picks a free port) and starts
// serving in the background. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("rpc: listen: %w", err)
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	for {
		frame, err := readFrame(br)
		if err != nil {
			return
		}
		var req wireRequest
		if err := Decode(frame, &req); err != nil {
			return
		}
		var resp wireResponse
		ctx := context.Background()
		cancel := context.CancelFunc(func() {})
		if req.TimeoutNanos != 0 {
			ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutNanos))
		}
		body, herr := s.handler.ServeRPC(ctx, Request{From: req.From, Method: req.Method, Body: req.Body})
		cancel()
		if herr != nil {
			resp.Err = herr.Error()
		} else {
			resp.Body = body
		}
		out, err := Encode(&resp)
		if err != nil {
			return
		}
		if err := writeFrame(bw, out); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// Close stops the listener and closes open connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.wg.Wait()
	return err
}

// Client is a TCP Caller with one pooled connection per remote address,
// safe for concurrent use. Calls on the same connection are serialized; the
// stores batch work into few round trips, so this keeps the implementation
// simple.
type Client struct {
	// From identifies this client to servers.
	From string
	mu   sync.Mutex
	conn map[string]*clientConn
}

type clientConn struct {
	mu sync.Mutex
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

// NewClient returns a client identifying itself as from.
func NewClient(from string) *Client {
	return &Client{From: from, conn: make(map[string]*clientConn)}
}

// Call implements Caller.
func (cl *Client) Call(ctx context.Context, to, method string, body []byte) ([]byte, error) {
	cc, err := cl.get(ctx, to)
	if err != nil {
		return nil, err
	}
	req := wireRequest{From: cl.From, Method: method, Body: body}
	if dl, ok := ctx.Deadline(); ok {
		// An already-expired deadline still travels (as a minimal budget):
		// the handler should see a done context rather than run unbounded.
		req.TimeoutNanos = max(int64(time.Until(dl)), 1)
	}
	resp, err := cc.roundTrip(ctx, req)
	if err != nil {
		cl.drop(to, cc)
		return nil, err
	}
	if resp.Err != "" {
		return nil, errors.New(resp.Err)
	}
	return resp.Body, nil
}

// get returns the pooled connection to the address, dialling one if the
// pool has none. The pool map under cl.mu is the only record of which
// connection is live: a caller that dialled while another filled the slot
// closes its own connection and uses the winner's.
func (cl *Client) get(ctx context.Context, to string) (*clientConn, error) {
	cl.mu.Lock()
	cc := cl.conn[to]
	cl.mu.Unlock()
	if cc != nil {
		return cc, nil
	}
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", to)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", to, err)
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if won := cl.conn[to]; won != nil {
		c.Close()
		return won, nil
	}
	cc = &clientConn{c: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c)}
	cl.conn[to] = cc
	return cc, nil
}

// drop retires a connection a call failed on: out of the pool (unless a
// newer one already took its slot) and closed, so the next call dials fresh.
func (cl *Client) drop(to string, cc *clientConn) {
	cl.mu.Lock()
	if cl.conn[to] == cc {
		delete(cl.conn, to)
	}
	cl.mu.Unlock()
	cc.c.Close()
}

// Close closes all pooled connections.
func (cl *Client) Close() {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for _, cc := range cl.conn {
		cc.c.Close()
	}
	cl.conn = make(map[string]*clientConn)
}

func (cc *clientConn) roundTrip(ctx context.Context, req wireRequest) (wireResponse, error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if dl, ok := ctx.Deadline(); ok {
		cc.c.SetDeadline(dl)
	} else {
		cc.c.SetDeadline(time.Time{})
	}
	frame, err := Encode(&req)
	if err != nil {
		return wireResponse{}, err
	}
	if err := writeFrame(cc.bw, frame); err != nil {
		return wireResponse{}, err
	}
	if err := cc.bw.Flush(); err != nil {
		return wireResponse{}, err
	}
	respFrame, err := readFrame(cc.br)
	if err != nil {
		return wireResponse{}, err
	}
	var resp wireResponse
	if err := Decode(respFrame, &resp); err != nil {
		return wireResponse{}, err
	}
	return resp, nil
}

func writeFrame(w io.Writer, frame []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(frame)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("rpc: write frame: %w", err)
	}
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("rpc: write frame: %w", err)
	}
	return nil
}

func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("rpc: frame of %d bytes exceeds limit", n)
	}
	frame := make([]byte, n)
	if _, err := io.ReadFull(r, frame); err != nil {
		return nil, err
	}
	return frame, nil
}
