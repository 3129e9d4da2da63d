package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"bsisa/internal/svc"
)

// sample is the client-side record of one request.
type sample struct {
	Due  time.Time // when the schedule wanted it sent
	Wake time.Time // when the generator handed it to a sender (open loop)
	Sent time.Time
	Done time.Time
	Code int
	Err  string // transport, decode or error-envelope failure
	Resp *svc.SimResponse
}

func (s *sample) latency() time.Duration { return s.Done.Sub(s.Due) }
func (s *sample) ok() bool               { return s.Err == "" && s.Code == http.StatusOK }

// loadClient posts requests over at most `conns` keep-alive connections.
type loadClient struct {
	hc  *http.Client
	url string
}

func newLoadClient(base string, conns int) *loadClient {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	return &loadClient{hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, url: base + "/v1/sim"}
}

func (c *loadClient) close() { c.hc.CloseIdleConnections() }

// post sends one request with the given id and decodes the envelope.
func (c *loadClient) post(ctx context.Context, req svc.SimRequest, id string, s *sample) {
	req.ID = id
	body, err := json.Marshal(&req)
	if err != nil {
		s.Err = err.Error()
		return
	}
	s.Sent = time.Now()
	defer func() { s.Done = time.Now() }()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		s.Err = err.Error()
		return
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(hreq)
	if err != nil {
		s.Err = err.Error()
		return
	}
	defer resp.Body.Close()
	s.Code = resp.StatusCode
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		s.Err = err.Error()
		return
	}
	var out svc.SimResponse
	if err := json.Unmarshal(data, &out); err != nil {
		s.Err = "decode response: " + err.Error()
		return
	}
	s.Resp = &out
	if out.Error != "" {
		s.Err = out.ErrorCode + ": " + out.Error
	}
}

// openLoop sends items on their schedule from `senders` goroutines. The
// generator never waits for a sender: due requests queue in a channel sized
// to the schedule, and each is timed from its due time, so a stalled server
// charges its stall to every request that was due meanwhile.
func openLoop(ctx context.Context, c *loadClient, items []item, senders int, prefix string) []sample {
	out := make([]sample, len(items))
	queue := make(chan int, len(items))
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				c.post(ctx, items[i].Req, fmt.Sprintf("%s-%d", prefix, i), &out[i])
			}
		}()
	}
	start := time.Now()
	for i, it := range items {
		due := start.Add(it.Due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		out[i].Due, out[i].Wake = due, time.Now()
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// closedLoop runs `clients` callers that each send the next item as soon as
// their previous request completes; each request is due when it is sent.
func closedLoop(ctx context.Context, c *loadClient, items []item, clients int, prefix string) []sample {
	out := make([]sample, len(items))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(items) {
					return
				}
				out[i].Due = time.Now()
				out[i].Wake = out[i].Due
				c.post(ctx, items[i].Req, fmt.Sprintf("%s-%d", prefix, i), &out[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// phaseBounds returns the first due time and the last completion.
func phaseBounds(ss []sample) (first, last time.Time) {
	for i := range ss {
		if first.IsZero() || ss[i].Due.Before(first) {
			first = ss[i].Due
		}
		if ss[i].Done.After(last) {
			last = ss[i].Done
		}
	}
	return first, last
}

// phaseWall is the wall time from the first due time to the last completion.
func phaseWall(ss []sample) time.Duration {
	first, last := phaseBounds(ss)
	return last.Sub(first)
}

// loadPlan is what the load-generator process is asked to send. Items
// carry no source text: the generator fills it in from Sources by program
// index, so each source crosses the process boundary once.
type loadPlan struct {
	URL     string
	Clients int
	Sources []string
	Open    []item
	Closed  []item
}

func newLoadPlan(url string, clients int, in *serveInputs) *loadPlan {
	p := &loadPlan{URL: url, Clients: clients}
	for _, prog := range in.programs {
		p.Sources = append(p.Sources, prog.Source)
	}
	strip := func(items []item) []item {
		out := append([]item(nil), items...)
		for i := range out {
			out[i].Req.Program.Source = ""
		}
		return out
	}
	p.Open, p.Closed = strip(in.open), strip(in.closed)
	return p
}

// loadResult is what it reports back.
type loadResult struct {
	Open, Closed []sample
}

// runLoadPlan executes a plan: the open loop, then the closed loop.
func runLoadPlan(p *loadPlan) *loadResult {
	for _, items := range [][]item{p.Open, p.Closed} {
		for i := range items {
			items[i].Req.Program.Source = p.Sources[items[i].Prog]
		}
	}
	c := newLoadClient(p.URL, p.Clients)
	defer c.close()
	return &loadResult{
		Open:   openLoop(context.Background(), c, p.Open, p.Clients, "open"),
		Closed: closedLoop(context.Background(), c, p.Closed, p.Clients, "closed"),
	}
}

// loadgenMain is the load-generator process: it reads a plan, runs it
// against the server and writes the samples.
func loadgenMain(planPath, outPath string) error {
	data, err := os.ReadFile(planPath)
	if err != nil {
		return err
	}
	var p loadPlan
	if err := json.Unmarshal(data, &p); err != nil {
		return fmt.Errorf("load plan: %w", err)
	}
	out, err := json.Marshal(runLoadPlan(&p))
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, out, 0o644)
}

// writeLoadPlan stores the plan for the load-generator process.
func writeLoadPlan(workDir string, p *loadPlan) (string, error) {
	data, err := json.Marshal(p)
	if err != nil {
		return "", err
	}
	path := filepath.Join(workDir, "loadplan.json")
	return path, os.WriteFile(path, data, 0o644)
}

// spawnLoadgen runs a stored plan in a separate load-generator process
// (this binary re-executed), so the generator's timers and its senders' CPU
// never queue behind the server's goroutines, and waits for it to exit. It
// returns the path of the samples it wrote.
func spawnLoadgen(planPath string) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	outPath := filepath.Join(filepath.Dir(planPath), "loadresult.json")
	cmd := exec.Command(self, "-loadgen", planPath, "-loadgen-out", outPath)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("load generator: %w", err)
	}
	return outPath, nil
}

func readLoadResult(path string) (*loadResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out loadResult
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("load generator output: %w", err)
	}
	return &out, nil
}
