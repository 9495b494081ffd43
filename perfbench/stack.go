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
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"flep/internal/cluster"
	"flep/internal/replay"
	"flep/internal/server"
)

// stackSpec says which parts of the shipped stack a workload runs.
type stackSpec struct {
	cfg     server.Config
	nodes   int  // flepd instances
	listen  bool // give each node a loopback TCP listener
	gateway bool // front the nodes with a flepgw gateway (implies listen)
	record  bool // attach a replay recorder to the (single) node
}

// node is one flepd built the way cmd/flepd builds it.
type node struct {
	fleet   *server.Fleet
	offline time.Duration // server.NewFleet wall time (offline phase + loop start)
	ln      *countingListener
	srv     *http.Server
	served  chan error
	addr    string
}

// stack is a running instance of the program under test.
type stack struct {
	nodes   []*node
	gw      *cluster.Gateway
	front   http.Handler // what the load hits in-process: gateway or node 0
	rec     *replay.Recorder
	recPath string
	tr      *tracer
	joins   *joinTable
}

// countingListener counts accepted connections.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// spanHeader carries the caller's span ID to a wrapped handler.
const spanHeader = "X-Bench-Span"

// joinTable links a gateway span to the node span it caused. The gateway
// forwards only the launch body, so the node side joins on the body's
// client, graph and stage (unique per graph stage in the graph workload).
type joinTable struct {
	mu     sync.Mutex
	byRoot map[int64]int64  // root span → gateway span
	byKey  map[string]int64 // client/graph/stage → root span
}

func newJoinTable() *joinTable {
	return &joinTable{byRoot: map[int64]int64{}, byKey: map[string]int64{}}
}

func stageKey(client, graph, stage string) string { return client + "/" + graph + "/" + stage }

func (j *joinTable) setKey(key string, root int64) {
	j.mu.Lock()
	j.byKey[key] = root
	j.mu.Unlock()
}

func (j *joinTable) setGateway(root, gw int64) {
	j.mu.Lock()
	j.byRoot[root] = gw
	j.mu.Unlock()
}

func (j *joinTable) gatewayFor(key string) int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.byRoot[j.byKey[key]]
}

// Where a wrapped handler finds its parent span.
const (
	parentFromHeader  = iota // spanHeader, set by the benchmark's client
	parentForGateway         // spanHeader; also registers the span for parentFromJoinKey
	parentFromJoinKey        // the joinTable, keyed on the proxied body
)

// wrapLaunches records a span named name around every POST /v1/launch
// the handler serves while the tracer is on.
func wrapLaunches(name string, h http.Handler, tr *tracer, joins *joinTable, how int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, start, ok := tr.begin()
		if !ok || r.URL.Path != "/v1/launch" {
			h.ServeHTTP(w, r)
			return
		}
		req := r.Header.Get(spanHeader)
		parent, _ := strconv.ParseInt(req, 10, 64) // 0, a root, without the header
		switch how {
		case parentForGateway:
			joins.setGateway(parent, id)
		case parentFromJoinKey:
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			var lr server.LaunchRequest
			_ = json.Unmarshal(body, &lr)
			req = stageKey(r.Header.Get("X-Flep-Client"), lr.Graph, lr.Stage)
			parent = joins.gatewayFor(req)
		}
		h.ServeHTTP(w, r)
		tr.end(id, parent, start, name, req)
	})
}

// buildStack starts the stack the way cmd/flepd and cmd/flepgw do:
// server.NewFleet + Fleet.Handler under an http.Server per node, and
// cluster.New with its default http.Client over them. It returns once
// every server and the gateway answer /readyz.
func buildStack(spec stackSpec, tr *tracer, recPath string) (st *stack, err error) {
	st = &stack{tr: tr, joins: newJoinTable()}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	cfg := spec.cfg
	if spec.record {
		st.recPath = recPath
		st.rec, err = replay.NewRecorder(recPath, cfg.RecorderHeader(1),
			replay.RecorderOptions{WallClock: time.Now})
		if err != nil {
			return st, err
		}
		cfg.Recorder = st.rec
	}
	for i := 0; i < spec.nodes; i++ {
		t0 := time.Now()
		f, err := server.NewFleet(server.FleetConfig{Config: cfg, Devices: 1, Affinity: true})
		if err != nil {
			return st, fmt.Errorf("node %d: %w", i, err)
		}
		n := &node{fleet: f, offline: time.Since(t0)}
		st.nodes = append(st.nodes, n)
		if !spec.listen && !spec.gateway {
			continue
		}
		raw, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return st, err
		}
		n.ln = &countingListener{Listener: raw}
		n.addr = raw.Addr().String()
		nodeParent := parentFromHeader
		if spec.gateway {
			nodeParent = parentFromJoinKey
		}
		n.srv = &http.Server{Handler: wrapLaunches("server.handler", f.Handler(), tr, st.joins, nodeParent)}
		n.served = make(chan error, 1)
		go func() { n.served <- n.srv.Serve(n.ln) }()
	}
	st.front = wrapLaunches("server.handler", st.nodes[0].fleet.Handler(), tr, st.joins, parentFromHeader)
	if spec.gateway {
		addrs := make([]string, len(st.nodes))
		for i, n := range st.nodes {
			addrs[i] = n.addr
		}
		st.gw, err = cluster.New(cluster.Config{Nodes: addrs})
		if err != nil {
			return st, err
		}
		st.gw.Start()
		st.front = wrapLaunches("gateway.handler", st.gw.Handler(), tr, st.joins, parentForGateway)
	}
	return st, st.waitReady()
}

// waitReady polls /readyz on every node listener and on the gateway.
func (st *stack) waitReady() error {
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	ready := func() bool {
		for _, n := range st.nodes {
			if n.srv == nil {
				if code := serveInProcess(n.fleet.Handler(), "GET", "/readyz", nil).Code; code != http.StatusOK {
					return false
				}
				continue
			}
			resp, err := client.Get("http://" + n.addr + "/readyz")
			if err != nil {
				return false
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return false
			}
		}
		if st.gw != nil {
			if st.gw.ReadyNodes() != len(st.nodes) {
				return false
			}
			if serveInProcess(st.gw.Handler(), "GET", "/readyz", nil).Code != http.StatusOK {
				return false
			}
		}
		return true
	}
	for !ready() {
		if time.Now().After(deadline) {
			return errors.New("stack not ready after 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// serveInProcess calls h.ServeHTTP directly: no connection, no listener.
func serveInProcess(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// close stops the nodes gracefully (queued and in-flight launches finish,
// the recorder is flushed) and closes the gateway and listeners.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if st.gw != nil {
		st.gw.Close()
	}
	for _, n := range st.nodes {
		if n.srv != nil {
			if err := n.srv.Shutdown(ctx); err != nil {
				errs = append(errs, err)
			}
			if err := <-n.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
				errs = append(errs, err)
			}
		}
		if err := n.fleet.Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
	}
	if st.rec != nil {
		if err := st.rec.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// accepted sums accepted connections over the node listeners.
func (st *stack) accepted() int64 {
	var total int64
	for _, n := range st.nodes {
		if n.ln != nil {
			total += n.ln.accepted.Load()
		}
	}
	return total
}

// steps sums the event-loop step counters over every node's shards.
func (st *stack) steps() int64 {
	var total int64
	for _, n := range st.nodes {
		for i := 0; i < n.fleet.Devices(); i++ {
			total += n.fleet.Shard(i).Steps()
		}
	}
	return total
}

// counters sums Fleet.Counters over the nodes.
func (st *stack) counters() map[string]int64 {
	out := map[string]int64{}
	for _, n := range st.nodes {
		for k, v := range n.fleet.Counters() {
			out[k] += v
		}
	}
	return out
}
