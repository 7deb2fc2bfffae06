package rpc

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

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
		req, timeout, err := decodeRequest(frame)
		if err != nil {
			// Answer before hanging up: a caller speaking another format
			// gets a permanent error, not an EOF its retry policy would
			// spend its whole budget on.
			if writeFrame(bw, errHead, []byte(err.Error())) == nil {
				bw.Flush()
			}
			return
		}
		ctx := context.Background()
		cancel := context.CancelFunc(func() {})
		if timeout != 0 {
			ctx, cancel = context.WithTimeout(ctx, time.Duration(timeout))
		}
		body, herr := s.handler.ServeRPC(ctx, req)
		cancel()
		head := okHead
		if herr != nil {
			head, body = errHead, []byte(herr.Error())
		}
		if err := writeFrame(bw, head, body); err != nil {
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
	mu   sync.Mutex
	c    net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	head []byte // request-head scratch, reused under mu
	// dead is set, under mu, by the call that failed on c, which closes c
	// before it unlocks: a caller queued on mu finds it set and has written
	// nothing.
	dead bool
}

// errRetired: the pooled connection was retired by another caller's failed
// call while this one waited for it. Nothing of this call was sent.
var errRetired = fmt.Errorf("rpc: connection retired by a failed call: %w", ErrUnreachable)

// NewClient returns a client identifying itself as from.
func NewClient(from string) *Client {
	return &Client{From: from, conn: make(map[string]*clientConn)}
}

// Call implements Caller. The context's deadline bounds the call on the
// connection, and a cancellation ends it at once with an error wrapping
// ctx.Err(). A call that fails on the connection retires it (see roundTrip),
// since the reply may still arrive on it; a caller that was queued behind
// that call dials once more.
func (cl *Client) Call(ctx context.Context, to, method string, body []byte) ([]byte, error) {
	for redial := true; ; redial = false {
		cc, err := cl.get(ctx, to)
		if err != nil {
			return nil, err
		}
		reply, remote, err := cl.roundTrip(ctx, to, cc, method, body)
		if err == nil {
			return reply, remote
		}
		if err != errRetired || !redial {
			return nil, err
		}
	}
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

// retire takes a connection a call failed on out of service, under cc.mu:
// marked dead, closed, and out of the pool (unless a newer one already took
// its slot), so the next call dials fresh.
func (cl *Client) retire(to string, cc *clientConn) {
	cc.dead = true
	cc.c.Close()
	cl.mu.Lock()
	if cl.conn[to] == cc {
		delete(cl.conn, to)
	}
	cl.mu.Unlock()
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

// roundTrip sends one request on cc and decodes its response into the
// handler's reply or error (remote). A context deadline maps onto the
// connection; a cancellation has no deadline to map, so context.AfterFunc
// sets one in the past, which fails the blocked write or read at once. Any
// failure after the request may have been written retires cc before mu is
// released, so no queued caller writes on the connection or reads the late
// reply.
func (cl *Client) roundTrip(ctx context.Context, to string, cc *clientConn, method string, body []byte) (reply []byte, remote, err error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.dead {
		return nil, nil, errRetired
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("rpc: %s: %w", method, err)
	}
	var timeout int64
	dl, ok := ctx.Deadline()
	if ok {
		// An already-expired deadline still travels (as a minimal budget):
		// the handler should see a done context rather than run unbounded.
		timeout = max(int64(time.Until(dl)), 1)
	}
	cc.c.SetDeadline(dl)
	stop := context.AfterFunc(ctx, func() { cc.c.SetDeadline(time.Unix(1, 0)) })
	cc.head = appendRequestHead(cc.head[:0], cl.From, method, timeout)
	frame, err := cc.exchange(body)
	if !stop() {
		err = fmt.Errorf("rpc: %s: %w", method, ctx.Err())
	}
	if err == nil {
		if reply, remote, err = decodeResponse(frame); err == nil {
			return reply, remote, nil
		}
	}
	cl.retire(to, cc)
	return nil, nil, err
}

func (cc *clientConn) exchange(body []byte) ([]byte, error) {
	if err := writeFrame(cc.bw, cc.head, body); err != nil {
		return nil, err
	}
	if err := cc.bw.Flush(); err != nil {
		return nil, fmt.Errorf("rpc: write frame: %w", err)
	}
	return readFrame(cc.br)
}

// writeFrame writes one length-prefixed frame, head then body.
func writeFrame(w *bufio.Writer, head, body []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(head)+len(body)))
	// A bufio.Writer's error is sticky: the last Write reports any.
	w.Write(hdr[:])
	w.Write(head)
	if _, err := w.Write(body); err != nil {
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
