package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one discserve process started by the benchmark.
type child struct {
	role  string
	cmd   *exec.Cmd
	api   string // job API base URL
	admin string // admin listener base URL (/metrics, timelines, pprof)
	done  chan struct{}

	mu   sync.Mutex
	logs []string // the last lines the process printed, for error reports
}

// startChild runs discserve with args plus dynamic listen addresses and
// returns once both listeners are up. The child is killed if this process
// dies, and by stop.
func startChild(ctx context.Context, bin, role string, args []string) (*child, error) {
	args = append([]string{"-role", role, "-addr", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0", "-pprof"}, args...)
	c := &child{role: role, cmd: exec.Command(bin, args...), done: make(chan struct{})}
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	c.cmd.Stdout, c.cmd.Stderr = pw, pw
	if err := c.cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		return nil, fmt.Errorf("starting discserve %s: %w", role, err)
	}
	pw.Close()
	addrs := make(chan [2]string, 1)
	go func() {
		defer close(c.done)
		defer pr.Close()
		var api, admin string
		reported := false
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			line := sc.Text()
			c.mu.Lock()
			if c.logs = append(c.logs, line); len(c.logs) > 40 {
				c.logs = c.logs[1:]
			}
			c.mu.Unlock()
			if a, ok := strings.CutPrefix(line, "discserve: admin listening on "); ok {
				admin = "http://" + a
			} else if a, ok := strings.CutPrefix(line, "discserve: listening on "); ok {
				api = "http://" + a
			}
			if api != "" && admin != "" && !reported {
				addrs <- [2]string{api, admin}
				reported = true
			}
		}
		_ = c.cmd.Wait() // exit status is reported through the logs
	}()
	select {
	case a := <-addrs:
		c.api, c.admin = a[0], a[1]
		return c, nil
	case <-c.done:
		return nil, fmt.Errorf("discserve %s exited during start-up: %s", role, c.tail())
	case <-time.After(30 * time.Second):
		c.stop()
		return nil, fmt.Errorf("discserve %s did not report its listeners within 30s", role)
	case <-ctx.Done():
		c.stop()
		return nil, ctx.Err()
	}
}

func (c *child) pid() int { return c.cmd.Process.Pid }

func (c *child) tail() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.logs, " | ")
}

// stop kills the process and waits until it has exited.
func (c *child) stop() {
	_ = c.cmd.Process.Kill() // fails only if it already exited
	<-c.done
}

// served is a discserve deployment: one standalone process, or a
// coordinator plus workers. The owner is the process that admits jobs.
type served struct {
	in     *inputs
	procs  []*child
	owner  *child
	client *http.Client
	repeat int // re-post an earlier body every repeat-th submission (0 = never)
}

// close stops every process; closing twice is harmless.
func (s *served) close() {
	for _, c := range s.procs {
		c.stop()
	}
	s.procs = nil
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   150 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
	}
}

// startStandalone starts one standalone discserve with a fresh checkpoint
// directory and waits until it is ready.
func startStandalone(ctx context.Context, bin, dir string, in *inputs, repeat int) (system, error) {
	c, err := startChild(ctx, bin, "standalone", []string{"-checkpoint-dir", filepath.Join(dir, "checkpoints")})
	if err != nil {
		return nil, err
	}
	s := &served{in: in, procs: []*child{c}, owner: c, client: newClient(), repeat: repeat}
	if err := s.waitFor(ctx, func() error {
		_, err := s.get(ctx, c.api+"/readyz")
		return err
	}); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// startFleet starts a coordinator with a shard ledger and workers that
// register with it, and waits until every worker is registered.
func startFleet(ctx context.Context, bin, dir string, in *inputs, shards, workers int) (system, error) {
	coord, err := startChild(ctx, bin, "coordinator", []string{
		"-shards", strconv.Itoa(shards), "-ledger-dir", filepath.Join(dir, "ledger")})
	if err != nil {
		return nil, err
	}
	s := &served{in: in, procs: []*child{coord}, owner: coord, client: newClient()}
	for i := 0; i < workers; i++ {
		w, err := startChild(ctx, bin, "worker", []string{"-coordinator", coord.api})
		if err != nil {
			s.close()
			return nil, err
		}
		s.procs = append(s.procs, w)
	}
	if err := s.waitFor(ctx, func() error {
		m, err := s.scrape(ctx, coord)
		if err == nil && m.sum("disc_cluster_workers") < float64(workers) {
			err = fmt.Errorf("%v of %d workers registered", m.sum("disc_cluster_workers"), workers)
		}
		return err
	}); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// waitFor polls ready every 10ms until it returns nil, for up to 30s.
func (s *served) waitFor(ctx context.Context, ready func() error) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		err := ready()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("system not ready after 30s (last error: %v): %s", err, s.owner.tail())
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// get fetches url and returns its body, failing on a non-200 status.
func (s *served) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	res, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		return nil, err
	}
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, res.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

func (s *served) scrape(ctx context.Context, c *child) (series, error) {
	b, err := s.get(ctx, c.admin+"/metrics")
	if err != nil {
		return nil, err
	}
	return parseSeries(bytes.NewReader(b))
}

// bodyFor picks the body of submission i: a rotation of one of the bases
// that no other submission of this process uses, except that every
// repeat-th submission re-posts the body of the submission two before it,
// which the server answers from its result cache (or attaches to, while
// that job still runs). The warm-up job uses the last rotation and the
// probe job the unrotated text, so neither collides with a measured one.
func (s *served) bodyFor(i int) (*base, []byte, error) {
	b0 := s.in.bases[0]
	switch i {
	case warmupJob:
		return b0, b0.body(len(b0.lines) - 1), nil
	case probeJob:
		return b0, b0.body(0), nil
	}
	if s.repeat > 0 && i%s.repeat == s.repeat-1 {
		i -= 2
	}
	n := len(s.in.bases)
	b, k := s.in.bases[i%n], 1+i/n
	if k >= len(b.lines)-1 {
		return nil, nil, fmt.Errorf("submission %d exhausts the %d distinct rotations of each base", i, len(b.lines)-2)
	}
	return b, b.body(k), nil
}

// job submits with ?wait=1, then streams the result and compares its
// digest with the reference.
func (s *served) job(ctx context.Context, i int) jobOutcome {
	b, body, err := s.bodyFor(i)
	if err != nil {
		return jobOutcome{failed: true, err: err}
	}
	out := jobOutcome{reqBytes: len(body)}
	t0 := time.Now()
	url := fmt.Sprintf("%s/jobs?minsup=%d&wait=1", s.owner.api, s.in.delta)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return jobOutcome{failed: true, err: err}
	}
	res, err := s.client.Do(req)
	if err != nil {
		out.failed, out.err = true, err
		return out
	}
	var st struct {
		ID    string          `json:"id"`
		State string          `json:"state"`
		Error json.RawMessage `json:"error"`
	}
	err = json.NewDecoder(res.Body).Decode(&st)
	_, _ = io.Copy(io.Discard, res.Body)
	res.Body.Close()
	switch {
	case err != nil:
		out.failed, out.err = true, fmt.Errorf("decoding submit response (%s): %w", res.Status, err)
		return out
	case res.StatusCode != http.StatusOK || st.State != "done":
		out.failed, out.err = true, fmt.Errorf("submit: %s, state %q, error %s", res.Status, st.State, st.Error)
		return out
	}
	out.id = st.ID
	rreq, err := http.NewRequestWithContext(ctx, http.MethodGet, s.owner.api+"/jobs/"+st.ID+"/result", nil)
	if err != nil {
		out.failed, out.err = true, err
		return out
	}
	rres, err := s.client.Do(rreq)
	if err != nil {
		out.failed, out.err = true, err
		return out
	}
	h := sha256.New()
	_, err = io.Copy(h, rres.Body)
	rres.Body.Close()
	out.seconds = time.Since(t0).Seconds()
	if err != nil || rres.StatusCode != http.StatusOK {
		out.failed, out.err = true, fmt.Errorf("result: %s: %v", rres.Status, err)
		return out
	}
	out.mismatch = !bytes.Equal(h.Sum(nil), b.digest[:])
	return out
}

func (s *served) cpuSeconds() (float64, error) {
	total := 0.0
	for _, c := range s.procs {
		x, err := procCPU(c.pid())
		if err != nil {
			return 0, err
		}
		total += x
	}
	return total, nil
}

func (s *served) peakRSSMB() (float64, error) {
	peak := 0.0
	for _, c := range s.procs {
		x, err := peakRSSMB(c.pid())
		if err != nil {
			return 0, err
		}
		peak = max(peak, x)
	}
	return peak, nil
}
