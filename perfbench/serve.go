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
	"runtime"
	"time"

	"rmq/internal/api"
	"rmq/internal/server"
)

// requestTimeout fails a request that has not completed by then.
const requestTimeout = 30 * time.Second

// rmqd is an unmodified in-process rmqd serving on a loopback port,
// with the one load connection that talks to it.
type rmqd struct {
	srv  *server.Server
	http *http.Server
	url  string
	done chan error
	conn *conn
}

func startRMQD(cfg server.Config) (*rmqd, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	d := &rmqd{srv: server.New(cfg), url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	d.http = &http.Server{Handler: d.srv}
	d.conn = newConn(d.url)
	go func() { d.done <- d.http.Serve(ln) }()
	return d, nil
}

// setUpRMQD runs a server workload's set-up setupRounds times, each on a
// fresh rmqd with the previous one stopped, and returns the last server
// and every round's duration in seconds.
func setUpRMQD(cfg server.Config, setup func(*rmqd) error) (*rmqd, []float64, error) {
	var d *rmqd
	var setups []float64
	for r := 0; r < setupRounds; r++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, nil, fmt.Errorf("stopping rmqd: %w", err)
			}
		}
		runtime.GC() // each round starts from a collected heap
		begin := processCPU()
		var err error
		if d, err = startRMQD(cfg); err != nil {
			return nil, nil, err
		}
		if err := setup(d); err != nil {
			_ = d.stop() // the set-up error is the one to report
			return nil, nil, err
		}
		setups = append(setups, (processCPU() - begin).Seconds())
	}
	return d, setups, nil
}

// stop closes the load connection, shuts the server down and waits for
// its serving goroutine.
func (d *rmqd) stop() error {
	d.conn.c.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	d.srv.Close()
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// conn is one load connection. Plain net/http with no retries: a
// failed request is a failed operation.
type conn struct {
	c    *http.Client
	base string
}

func newConn(base string) *conn {
	return &conn{base: base, c: &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

// call issues one request and reads the whole response.
func (c *conn) call(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// callJSON issues a request with a JSON body, requires the given
// status and decodes the answer into out (when non-nil).
func (c *conn) callJSON(method, path string, in any, want int, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	status, data, err := c.call(method, path, body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, status, want, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: decoding answer: %w", method, path, err)
		}
	}
	return nil
}

// register registers a catalog and returns its id.
func (c *conn) register(req *api.CatalogRequest) (string, error) {
	var info api.CatalogInfo
	if err := c.callJSON("POST", "/catalogs", req, http.StatusCreated, &info); err != nil {
		return "", err
	}
	if info.ID == "" {
		return "", fmt.Errorf("registration returned no catalog id")
	}
	return info.ID, nil
}

func (c *conn) stats() (*api.StatsResponse, error) {
	var st api.StatsResponse
	if err := c.callJSON("GET", "/stats", nil, http.StatusOK, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// served is one HTTP exchange of the load phase.
type served struct {
	status     int
	body       []byte
	err        error
	start, end time.Duration // since the load phase began
}

// optimizeResult decodes and checks an /optimize exchange.
func optimizeResult(s served) (*api.OptimizeResponse, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", s.status, bytes.TrimSpace(s.body))
	}
	if len(s.body) == 0 {
		return nil, fmt.Errorf("empty response body")
	}
	var resp api.OptimizeResponse
	if err := json.Unmarshal(s.body, &resp); err != nil {
		return nil, fmt.Errorf("decoding answer: %w", err)
	}
	return &resp, nil
}

// loadLayers reports the generator's own health: the worst lateness of
// a waiting connection and the tail of the wait for a free connection.
func loadLayers(rep *report, timings []opTiming) {
	var late, wait []float64
	for _, t := range timings {
		late = append(late, ms(t.late))
		wait = append(wait, ms(t.connWait))
	}
	rep.values["loadgen.late_ms_max"] = quantile(late, 1)
	rep.values["loadgen.conn_wait_ms_p99"] = quantile(wait, 0.99)
}

// toTracer converts a load-phase offset to tracer time.
func toTracer(loadStart time.Time, d time.Duration) int64 {
	return int64(loadStart.Sub(tracing.base) + d)
}

// distinctSeeds draws n distinct request seeds; spans are keyed by
// them, so a repeat would merge two requests' spans.
func distinctSeeds(seed uint64, n int) []uint64 {
	rng := newRand(seed, 2)
	seen := make(map[uint64]bool, n)
	out := make([]uint64, 0, n)
	for len(out) < n {
		s := rng.Uint64()
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
