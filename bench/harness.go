package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// requestTimeout is the client-side limit; a request that exceeds it counts
// as failed.
const requestTimeout = 30 * time.Second

// instance is one serving process in miniature: the handler cmd/blazeserve
// mounts, on a loopback TCP listener.
type instance struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

func startInstance(cfg serve.Config) (*instance, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	in := &instance{
		srv:  serve.New(cfg),
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	in.hs = &http.Server{Handler: in.srv.Handler()}
	go func() {
		defer close(in.done)
		_ = in.hs.Serve(ln) // always returns ErrServerClosed after stop
	}()
	return in, nil
}

// stop shuts the listener, waits for the serve goroutine, and closes the
// server (which flushes any index directory).
func (in *instance) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = in.hs.Shutdown(ctx) // on timeout the listener is closed regardless
	<-in.done
	in.srv.Close()
}

// engine opens (or returns) the instance's engine for a stream through the
// server's own registry, so the bench measures the objects the handler uses.
func (in *instance) engine(stream string) (*core.Engine, error) {
	return in.srv.Registry().Engine(context.Background(), stream)
}

// client is one closed-loop caller: one connection, one reused read buffer.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	return &client{hc: &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the reply to EOF into the client's buffer,
// which stays valid until the next call. It reports the wall time from send
// to last byte; ok is false on a transport error or a non-200 status.
func (c *client) do(method, url string, body []byte) (wall time.Duration, ok bool) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, false
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return time.Since(start), false
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return time.Since(start), err == nil && resp.StatusCode == http.StatusOK
}

// query posts one /query.
func (c *client) query(base, stream, text string, noCache bool) (time.Duration, bool) {
	body, _ := json.Marshal(map[string]any{"stream": stream, "query": text, "no_cache": noCache})
	return c.do(http.MethodPost, base+"/query", body)
}

var totalSecondsKey = []byte(`"total_seconds":`)

// simSeconds extracts stats.total_seconds from a reply without decoding it:
// the key occurs once, near the end of the body.
func simSeconds(body []byte) float64 {
	i := bytes.LastIndex(body, totalSecondsKey)
	if i < 0 {
		return 0
	}
	rest := body[i+len(totalSecondsKey):]
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(string(rest[:end]), 64)
	return v
}

// reply is a kept response body with what is needed to check it later.
type reply struct {
	Family string
	Stream string
	Query  string
	Cycle  int
	Body   []byte
}

// tally accumulates one client's observations; tallies are merged after the
// clients stop, so nothing is shared on the clock.
type tally struct {
	attempted, failed int
	famMS             [][]float64 // per family, ms
	queryMS           []float64   // every /query, ms
	cycleMS           []float64   // completed cycles, ms
	simSum            float64     // Σ total_seconds over the fixed cycle prefix
	simN              int
	kept              []reply
}

func newTally() *tally { return &tally{famMS: make([][]float64, len(families))} }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// record counts one finished request; fam < 0 means no family.
func (t *tally) record(fam int, isQuery bool, wall time.Duration, ok bool) {
	t.attempted++
	if !ok {
		t.failed++
		return
	}
	if fam >= 0 {
		t.famMS[fam] = append(t.famMS[fam], ms(wall))
	}
	if isQuery {
		t.queryMS = append(t.queryMS, ms(wall))
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for i := range t.famMS {
		t.famMS[i] = append(t.famMS[i], o.famMS[i]...)
	}
	t.queryMS = append(t.queryMS, o.queryMS...)
	t.cycleMS = append(t.cycleMS, o.cycleMS...)
	t.simSum += o.simSum
	t.simN += o.simN
	t.kept = append(t.kept, o.kept...)
}

// runClients runs n closed-loop clients, each in its own goroutine with its
// own tally, waits for all of them, and returns the merged tally.
func runClients(n int, loop func(id int, c *client, t *tally)) *tally {
	tallies := make([]*tally, n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		tallies[id] = newTally()
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := newClient()
			defer c.close()
			loop(id, c, tallies[id])
		}(id)
	}
	wg.Wait()
	total := newTally()
	for _, t := range tallies {
		total.merge(t)
	}
	return total
}
