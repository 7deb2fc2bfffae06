package remote

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"orchestra/internal/core"
	"orchestra/internal/rpc"
	"orchestra/internal/store"
)

// GroupServer is the multi-group gateway: it serves many tenant stores
// over one transport by routing method names of the form
// "group/<encoded id>/store.X" to a lazily-opened per-group sub-server.
// The open callback supplies each group's backend (typically
// central.Node.OpenGroup); a group is opened on its first call and stays
// open until Close.
type GroupServer struct {
	open   func(group string) (store.Store, error)
	schema *core.Schema
	srv    *rpc.Server

	mu     sync.Mutex
	groups map[string]*Server
	closed bool
}

// NewGroupServer builds a gateway over the given per-group backend opener.
// Trust policies received from clients are compiled against the schema
// (shared by all groups; heterogeneous-schema fleets need one gateway per
// schema).
func NewGroupServer(open func(group string) (store.Store, error), schema *core.Schema) *GroupServer {
	gs := &GroupServer{open: open, schema: schema, groups: make(map[string]*Server)}
	gs.srv = rpc.NewServer(gs)
	return gs
}

// ServeRPC implements rpc.Handler: every method must carry a group route
// and dispatches to that group's sub-server with the route stripped.
func (gs *GroupServer) ServeRPC(ctx context.Context, req rpc.Request) ([]byte, error) {
	rest, ok := strings.CutPrefix(req.Method, "group/")
	if !ok {
		return nil, fmt.Errorf("remote: method %q: group gateway serves only group-routed methods", req.Method)
	}
	ns, method, ok := strings.Cut(rest, "/")
	if !ok {
		return nil, fmt.Errorf("remote: method %q: missing group route", req.Method)
	}
	group, err := store.DecodeNamespace(ns)
	if err != nil {
		return nil, fmt.Errorf("remote: method %q: %w", req.Method, err)
	}
	sub, err := gs.sub(group)
	if err != nil {
		return nil, err
	}
	req.Method = method
	return sub.mux.ServeRPC(ctx, req)
}

// sub returns the group's sub-server, opening its backend on first use.
func (gs *GroupServer) sub(group string) (*Server, error) {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if gs.closed {
		return nil, fmt.Errorf("remote: group gateway is closed")
	}
	if s, ok := gs.groups[group]; ok {
		return s, nil
	}
	backend, err := gs.open(group)
	if err != nil {
		return nil, fmt.Errorf("remote: open group %q: %w", group, err)
	}
	s := NewServer(backend, gs.schema)
	gs.groups[group] = s
	return s, nil
}

// Handler exposes the gateway as an rpc.Handler, so it can be mounted on
// any transport (a simnet node in tests, TCP in production).
func (gs *GroupServer) Handler() rpc.Handler { return gs }

// Listen binds addr and serves in the background, returning the bound
// address.
func (gs *GroupServer) Listen(addr string) (string, error) { return gs.srv.Listen(addr) }

// Close stops the transport and closes every backend the gateway opened
// (for backends that have a Close).
func (gs *GroupServer) Close() error {
	err := gs.srv.Close()
	gs.mu.Lock()
	groups := gs.groups
	gs.groups = map[string]*Server{}
	gs.closed = true
	gs.mu.Unlock()
	for _, s := range groups {
		if c, ok := s.backend.(interface{ Close() error }); ok {
			if cerr := c.Close(); err == nil {
				err = cerr
			}
		}
	}
	return err
}
