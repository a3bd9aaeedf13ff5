package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"

	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/server"
)

// clusterSlots sizes the hash ring of the two-partition cluster.
const clusterSlots = 16

// listener is one in-process HTTP server on an ephemeral loopback port.
type listener struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns ErrServerClosed after close
	}()
	return l, nil
}

func (l *listener) close() {
	_ = l.srv.Close() // drops live connections; nothing to report
	<-l.done
}

// sut is the system under test: one server, or a router in front of
// two partition nodes, reachable at url.
type sut struct {
	url       string
	nodes     []*server.Server
	listeners []*listener
	router    *cluster.Router
	// registry receives the router's metrics (cluster.retries).
	registry *obs.Registry
}

// nodeConfig is the configuration of one node server. matchLog is
// sized from the reference so the follower cannot be lapped.
func nodeConfig(w workload, schema *event.Schema, matchLog int, walDir string) server.Config {
	cfg := server.Config{Schema: schema, MatchLog: matchLog}
	if w.wal {
		cfg.WALDir, cfg.WALFsync = walDir, "never"
	}
	return cfg
}

// startSUT stands the workload's topology up on ephemeral loopback
// ports. dir is a fresh scratch directory for the WAL.
func startSUT(ctx context.Context, w workload, schema *event.Schema, matchLog int, dir string) (_ *sut, err error) {
	s := &sut{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	parts := 1
	if w.cluster {
		parts = 2
	}
	m := &cluster.Membership{Key: "ID", Slots: clusterSlots}
	for i := 0; i < parts; i++ {
		cfg := nodeConfig(w, schema, matchLog, filepath.Join(dir, fmt.Sprintf("wal%d", i)))
		lo, hi := i*clusterSlots/parts, (i+1)*clusterSlots/parts
		if w.cluster {
			cfg.Ownership = &cluster.Ownership{Key: m.Key, Slots: clusterSlots, Lo: lo, Hi: hi}
		}
		node, err := server.New(cfg)
		if err != nil {
			return nil, err
		}
		s.nodes = append(s.nodes, node)
		l, err := listen(node.Handler())
		if err != nil {
			return nil, err
		}
		s.listeners = append(s.listeners, l)
		m.Partitions = append(m.Partitions, cluster.Partition{ID: i, Lo: lo, Hi: hi, Leader: cluster.Node{URL: l.url}})
	}
	if !w.cluster {
		s.url = s.listeners[0].url
		return s, nil
	}
	s.registry = obs.NewRegistry()
	s.router, err = cluster.NewRouter(cluster.RouterOptions{Membership: m, Schema: schema, Registry: s.registry})
	if err != nil {
		return nil, err
	}
	if err := s.router.Start(ctx); err != nil {
		return nil, err
	}
	l, err := listen(s.router.Handler())
	if err != nil {
		return nil, err
	}
	s.listeners = append(s.listeners, l)
	s.url = l.url
	return s, nil
}

// drain flushes every node's windows and ends the match streams.
func (s *sut) drain(ctx context.Context) error {
	var errs []error
	for _, n := range s.nodes {
		errs = append(errs, n.Drain(ctx))
	}
	return errors.Join(errs...)
}

// close stops everything the sut started and waits for it.
func (s *sut) close() {
	if s.router != nil {
		s.router.Close()
	}
	for _, l := range s.listeners {
		l.close()
	}
	for _, n := range s.nodes {
		n.Close()
	}
}

// register posts the workload's registrations to the sut over HTTP.
func register(ctx context.Context, c *http.Client, url string, specs []server.QuerySpec) error {
	for _, spec := range specs {
		body, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/queries", bytes.NewReader(body))
		if err != nil {
			return err
		}
		resp, err := c.Do(req)
		if err != nil {
			return err
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("registering %s: %s: %s", spec.ID, resp.Status, bytes.TrimSpace(msg))
		}
	}
	return nil
}
