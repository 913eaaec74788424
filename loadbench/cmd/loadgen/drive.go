package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
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

	"enblogue/loadbench/trace"
	"enblogue/loadbench/workload"
)

// sutProc is one running system-under-test process.
type sutProc struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	setup   time.Duration
	drained chan struct{} // closed when its stdout reaches EOF
}

// startSUT starts the system under test and waits until it serves. The
// setup time runs from just before the process starts until it reports
// that it serves, so it covers process start, hub and server wiring, and
// any recovery.
func startSUT(bin string, args []string) (*sutProc, error) {
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = w
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		r.Close()
		w.Close()
		return nil, fmt.Errorf("starting system under test: %w", err)
	}
	w.Close()
	p := &sutProc{cmd: cmd, drained: make(chan struct{})}
	ready := make(chan string, 1)
	go func() {
		defer close(p.drained)
		defer r.Close()
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "READY "); ok {
				select {
				case ready <- addr:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-ready:
		p.setup = time.Since(start)
		p.base = "http://" + addr
		return p, nil
	case <-p.drained:
		err := cmd.Wait()
		return nil, fmt.Errorf("system under test exited before serving: %v", err)
	case <-time.After(60 * time.Second):
		p.kill()
		return nil, errors.New("system under test did not start serving within 60s")
	}
}

// stop shuts the process down gracefully, killing it if that takes more
// than ten seconds, and waits until it has exited.
func (p *sutProc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.kill()
		return err
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill() //nolint:errcheck // it may have exited meanwhile
		<-done
		err = errors.New("system under test ignored SIGTERM for 10s")
	}
	<-p.drained
	return err
}

// kill ends the process at once and waits until it has exited.
func (p *sutProc) kill() {
	p.cmd.Process.Kill() //nolint:errcheck // it may have exited meanwhile
	p.cmd.Wait()         //nolint:errcheck // a killed process reports the signal
	<-p.drained
}

// procCPU returns the process's user+system CPU time from /proc, in clock
// ticks of 10ms (USER_HZ is 100 on Linux).
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procHWM returns the process's peak resident set size (VmHWM) in MB.
func procHWM(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// postRec is one POST as the generator saw it (wall-clock Unix ns).
type postRec struct {
	due, send, ack int64
	ok             bool
	// backlog is how many later open-loop POSTs were already due when
	// this one was sent.
	backlog int
}

// frameRec is one SSE tick frame as the generator read it.
type frameRec struct {
	recv int64
	data []byte
	dups int
}

// sseReader reads the tenant's broadcast stream on its own connection.
type sseReader struct {
	mu     sync.Mutex
	frames map[int64]*frameRec
	bad    int // frames whose tick time would not parse
	done   chan struct{}
}

func openSSE(ctx context.Context, url string) (*sseReader, error) {
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("opening SSE stream: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("opening SSE stream: %s", resp.Status)
	}
	s := &sseReader{frames: map[int64]*frameRec{}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<16), 16<<20)
		for sc.Scan() {
			data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
			if !ok {
				continue
			}
			now := trace.Now()
			at := trace.FrameAt(data)
			s.mu.Lock()
			switch f := s.frames[at]; {
			case at == 0:
				s.bad++
			case f != nil:
				f.dups++
			default:
				s.frames[at] = &frameRec{recv: now, data: bytes.Clone(data)}
			}
			s.mu.Unlock()
		}
	}()
	return s, nil
}

// has reports whether every listed tick's frame has arrived.
func (s *sseReader) has(ats []int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, at := range ats {
		if s.frames[at] == nil {
			return false
		}
	}
	return true
}

// poster sends the workload's POSTs over one sequential keep-alive
// connection and tracks which POST carries the first document past each
// tick boundary.
type poster struct {
	stream *workload.Stream
	client *http.Client
	url    string
	buf    []byte
	posts  []postRec
	clock  workload.TickClock
	fired  []time.Time
	// tickPost maps a tick time to the POST that fired it; ticks lists
	// the tick times in order.
	tickPost map[int64]int
	ticks    []int64
	failed   error
}

func newPoster(s *workload.Stream, base string) *poster {
	return &poster{
		stream: s,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
		url:      base + "/v1/tenants/" + workload.Tenant + "/items",
		clock:    s.StartClock(),
		tickPost: map[int64]int{},
	}
}

// ingestView is the part of the server's ingest response the generator
// checks.
type ingestView struct {
	Consumed int `json:"consumed"`
}

// send sends the next POST, due at due (Unix ns), and reports whether it
// was acknowledged with every document consumed.
func (p *poster) send(due int64) bool {
	j := len(p.posts)
	first := p.stream.PostFirst(j)
	for k := first; k < first+p.stream.Spec.PostDocs; k++ {
		p.fired = p.clock.Advance(p.stream.Time(k), p.fired[:0])
		for _, t := range p.fired {
			p.tickPost[t.UnixNano()] = j
			p.ticks = append(p.ticks, t.UnixNano())
		}
	}
	p.buf = p.stream.AppendPost(p.buf[:0], j)
	rec := postRec{due: due, send: trace.Now()}
	err := p.do(j)
	rec.ack = trace.Now()
	rec.ok = err == nil
	p.posts = append(p.posts, rec)
	if err != nil {
		p.failed = fmt.Errorf("POST %d: %w", j, err)
	}
	return rec.ok
}

func (p *poster) do(j int) error {
	req, err := http.NewRequest(http.MethodPost, p.url, bytes.NewReader(p.buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set("X-Bench-Seq", strconv.Itoa(j))
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
	}
	var v ingestView
	if err := json.Unmarshal(body, &v); err != nil {
		return err
	}
	if v.Consumed != p.stream.Spec.PostDocs {
		return fmt.Errorf("consumed %d of %d documents", v.Consumed, p.stream.Spec.PostDocs)
	}
	return nil
}

// openLoop sends POSTs on the workload's fixed schedule from start for
// dur, each due at its scheduled time whether or not the system under
// test kept up. A system too slow to work off the schedule within twice
// the phase's length cuts it short, so a run still ends in bounded time.
// It returns the index range of the POSTs sent.
func (p *poster) openLoop(start time.Time, dur time.Duration) (from, to int) {
	from = len(p.posts)
	interval := time.Duration(float64(p.stream.Spec.PostDocs) / p.stream.Spec.Rate * float64(time.Second))
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(start.Add(dur)) || time.Since(start) > 2*dur {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ok := p.send(due.UnixNano())
		r := &p.posts[len(p.posts)-1]
		r.backlog = int(time.Duration(r.send-start.UnixNano())/interval) - i
		if !ok {
			break
		}
	}
	return from, len(p.posts)
}

// closedLoop sends each POST as soon as the previous one is acknowledged,
// for dur. It returns the index range of the POSTs sent.
func (p *poster) closedLoop(dur time.Duration) (from, to int) {
	from = len(p.posts)
	end := time.Now().Add(dur)
	for time.Now().Before(end) {
		if !p.send(trace.Now()) {
			break
		}
	}
	return from, len(p.posts)
}

// statsView is the part of the tenant's /v1 stats the generator checks.
type statsView struct {
	Shards int `json:"shards"`
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// copyDir copies a directory tree of regular files.
func copyDir(dst, src string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, raw, 0o644)
	})
}
