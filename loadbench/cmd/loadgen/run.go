package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"enblogue/loadbench/trace"
	"enblogue/loadbench/workload"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sut      string
	self     string // this binary, run again as the reference process
	workdir  string
	setups   int

	// refMutation deliberately breaks the reference (mutateTopK,
	// mutateSkipRecovery): the self-tests prove a wrong reference is caught.
	refMutation string
}

// outcome is one invocation's result.
type outcome struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   []measure
	report    []string // human-readable lines for standard error
}

// measure is one reported metric with its sample count.
type measure struct {
	name    string
	unit    string
	value   float64
	samples int
}

// pass is everything one measured pass against one system-under-test
// process collected.
type pass struct {
	traced    bool
	setups    []float64 // seconds
	posts     []postRec
	open      [2]int // measured open-loop POST range (after warm-up)
	sat       [2]int // closed-loop POST range
	windows   []window
	hwmMB     float64
	p         *poster
	frames    map[int64]*frameRec
	badFrames int
	dupFrames int
	report    *trace.Report
	shards    int
	postErr   error
}

// window is one slice of the closed loop: the documents acknowledged in
// it, its wall time, and the system under test's CPU time.
type window struct {
	docs    int
	elapsed time.Duration
	cpu     time.Duration
}

// rounds is how many system-under-test processes an untraced run
// measures in turn; every end-to-end metric is a median over all of them.
const rounds = 5

// satWindows is how many windows the closed loop is cut into; throughput
// and CPU per document are the medians over them, so a stall in one
// window does not move the result.
const satWindows = 5

// run executes one benchmark invocation.
func run(cfg *config) (*outcome, error) {
	spec, err := workload.Lookup(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	stream, err := workload.NewStream(spec, cfg.seed)
	if err != nil {
		return nil, err
	}
	dir, err := filepath.Abs(filepath.Join(cfg.workdir, "runs",
		fmt.Sprintf("%s-%d-%d", spec.Name, cfg.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	env := &runEnv{cfg: cfg, stream: stream, dir: dir}
	if spec.Durable {
		env.template = filepath.Join(dir, "template")
		if err := stream.Prepare(env.template); err != nil {
			return nil, err
		}
		env.predicates = filepath.Join(dir, "predicates.txt")
		if err := workload.WritePredicates(env.predicates, stream.Predicates(cfg.seed)); err != nil {
			return nil, err
		}
	}

	out := &outcome{correct: true}
	round := time.Duration(cfg.seconds * float64(time.Second) / rounds)
	if !cfg.trace {
		// Each round is a fresh process measured for a fifth of the run,
		// so one slow process or one slow stretch of the machine moves
		// the medians less.
		var passes []*pass
		starts := (max(cfg.setups, rounds) + rounds - 1) / rounds
		for i := 0; i < rounds; i++ {
			ps, err := env.runPass(false, starts, round)
			if err != nil {
				return nil, err
			}
			passes = append(passes, ps)
		}
		if err := env.checkAll(passes, out); err != nil {
			return nil, err
		}
		var tails []measure
		out.metrics, tails = endToEnd(passes)
		out.report = append(out.report, table("end-to-end metrics", out.metrics)...)
		out.report = append(out.report, table("tail latency, reported but not gated", tails)...)
		for i, ps := range passes {
			gated, tails := endToEnd([]*pass{ps})
			line := fmt.Sprintf("  round %d:", i+1)
			for _, m := range append(gated, tails...) {
				line += fmt.Sprintf(" %s=%.4g", m.name, m.value)
			}
			out.report = append(out.report, line)
		}
		return out, nil
	}

	// The traced pass is compared with an untraced pass of the same
	// length for the tracing overhead.
	plain, err := env.runPass(false, 1, round)
	if err != nil {
		return nil, err
	}
	traced, err := env.runPass(true, 1, round)
	if err != nil {
		return nil, err
	}
	if err := env.checkAll([]*pass{plain, traced}, out); err != nil {
		return nil, err
	}
	spans := allSpans(traced)
	path, err := writeSpans(cfg, spans)
	if err != nil {
		return nil, err
	}
	out.metrics = perLayer(plain, traced, spans)
	out.report = append(out.report, table("per-layer metrics", out.metrics)...)
	out.report = append(out.report, selfTimes(spans)...)
	out.report = append(out.report, "spans written to "+path)
	return out, nil
}

// runEnv is one invocation's fixed inputs.
type runEnv struct {
	cfg        *config
	stream     *workload.Stream
	dir        string
	template   string // prepared data directory (durable workloads)
	predicates string // predicates file (durable workloads)
	starts     int
}

// startOne starts a system-under-test process, on a fresh copy of the
// prepared data directory for durable workloads.
func (env *runEnv) startOne(traced bool) (*sutProc, error) {
	clock := env.stream.StartClock()
	args := []string{
		"-workload", env.stream.Spec.Name,
		"-next-tick", workload.FormatNano(clock.Next()),
	}
	if traced {
		args = append(args, "-trace")
	}
	if env.template != "" {
		env.starts++
		data := filepath.Join(env.dir, "data-"+strconv.Itoa(env.starts))
		if err := copyDir(data, env.template); err != nil {
			return nil, err
		}
		args = append(args, "-data-dir", data, "-predicates", env.predicates)
	}
	return startSUT(env.cfg.sut, args)
}

// runPass runs one pass: setups starts of the system under test (all but
// the last stopped at once), then the warm-up, open-loop and closed-loop
// phases against the last, then the drain of outstanding tick frames.
func (env *runEnv) runPass(traced bool, setups int, secs time.Duration) (*pass, error) {
	ps := &pass{traced: traced}
	var sut *sutProc
	for i := 0; i < setups; i++ {
		if sut != nil {
			sut.kill()
		}
		var err error
		if sut, err = env.startOne(traced); err != nil {
			return nil, err
		}
		ps.setups = append(ps.setups, sut.setup.Seconds())
	}
	err := env.drive(sut, ps, secs)
	if stopErr := sut.stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("stopping system under test: %w", stopErr)
	}
	return ps, err
}

func (env *runEnv) drive(sut *sutProc, ps *pass, secs time.Duration) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sse, err := openSSE(ctx, sut.base+"/v1/tenants/"+workload.Tenant+"/stream")
	if err != nil {
		return err
	}
	defer func() {
		cancel()
		<-sse.done
	}()

	warm, open, closed := secs/10, secs*55/100, secs*35/100
	p := newPoster(env.stream, sut.base)
	defer p.client.CloseIdleConnections()
	ps.p = p
	pid := sut.cmd.Process.Pid

	start := time.Now()
	_, warmEnd := p.openLoop(start, warm)
	if p.failed == nil {
		ps.open[0], ps.open[1] = p.openLoop(start.Add(warm), open)
		ps.open[0] = max(ps.open[0], warmEnd)
	}
	ps.sat[0] = len(p.posts)
	for i := 0; i < satWindows && p.failed == nil; i++ {
		cpu0, err := procCPU(pid)
		if err != nil {
			return err
		}
		t0 := time.Now()
		from, to := p.closedLoop(closed / satWindows)
		w := window{elapsed: time.Since(t0)}
		cpu1, err := procCPU(pid)
		if err != nil {
			return err
		}
		w.cpu = cpu1 - cpu0
		for _, r := range p.posts[from:to] {
			if r.ok {
				w.docs += env.stream.Spec.PostDocs
			}
		}
		ps.windows = append(ps.windows, w)
	}
	ps.sat[1] = len(p.posts)
	ps.posts, ps.postErr = p.posts, p.failed

	// Every tick the sent documents fired should reach the stream; wait
	// for the last frames, bounded so a lost frame cannot hang the run.
	for deadline := time.Now().Add(5 * time.Second); !sse.has(p.ticks) && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}

	var st statsView
	if err := getJSON(sut.base+"/v1/tenants/"+workload.Tenant+"/stats", &st); err != nil {
		return err
	}
	ps.shards = st.Shards
	if ps.traced {
		ps.report = new(trace.Report)
		if err := getJSON(sut.base+"/bench/report", ps.report); err != nil {
			return err
		}
	}
	if ps.hwmMB, err = procHWM(pid); err != nil {
		return err
	}
	cancel()
	<-sse.done
	sse.mu.Lock()
	ps.frames, ps.badFrames = sse.frames, sse.bad
	for _, f := range sse.frames {
		ps.dupFrames += f.dups
	}
	sse.mu.Unlock()
	return nil
}

// percentile returns the nearest-rank q-quantile of xs (sorted in place).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(float64(len(xs))*q+0.999999) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}
