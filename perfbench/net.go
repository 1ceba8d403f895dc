package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/server"
)

// node is one sketchd instance served on a real loopback TCP listener.
type node struct {
	srv  *server.Server
	cl   *cluster.Node // nil outside a cluster
	url  string
	ln   net.Listener
	hs   *http.Server
	done chan struct{} // closed when Serve has returned
}

// listen binds a loopback listener on a free port.
func listen() (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	return &node{ln: ln, url: "http://" + ln.Addr().String()}, nil
}

// serve starts serving h on the node's listener.
func (n *node) serve(h http.Handler) {
	n.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	n.done = make(chan struct{})
	go func() {
		defer close(n.done)
		if err := n.hs.Serve(n.ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logf("serve %s: %v", n.url, err)
		}
	}()
}

// stop closes the listener and every connection, waits for Serve to
// return, then stops the cluster loops and shuts the server down (final
// checkpoints and WAL close on a durable server).
func (n *node) stop() error {
	if n.hs != nil {
		_ = n.hs.Close() // only reports listener-close errors; Serve's exit is awaited below
		<-n.done
	} else {
		_ = n.ln.Close()
	}
	if n.cl != nil {
		n.cl.Close()
	}
	if n.srv == nil {
		return nil
	}
	return n.srv.Shutdown()
}

// newHTTPClient returns the benchmark's HTTP client: at most conns
// connections per node, redirects followed (a non-owner answers 307).
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// tenantDef is one tenant a workload declares.
type tenantDef struct {
	key  string
	spec server.TenantSpec
}

// createTenants declares every tenant through c, failing on the first
// refusal.
func createTenants(ctx context.Context, c *client.Client, ts []tenantDef) error {
	for _, t := range ts {
		if _, err := c.CreateTenant(ctx, t.key, t.spec); err != nil {
			return fmt.Errorf("create %s: %w", t.key, err)
		}
	}
	return nil
}
