// Command loadgen is the benchmark's load generator. It starts the system
// under test (cmd/sut) as a separate process, POSTs a workload's JSONL
// documents to /v1/tenants/bench/items over one sequential keep-alive
// connection, reads the tenant's broadcast SSE stream on a second one, and
// then replays exactly the documents it sent through an in-process
// reference engine to check every tick frame it read.
//
// A run has two timed phases after a short warm-up: an open loop at the
// workload's fixed rate, each POST timed from when it was due, and a
// closed loop that sends each POST as soon as the previous one is
// acknowledged. With -trace 0 it prints the end-to-end metrics; with
// -trace 1 it measures an untraced pass and then a traced one, prints the
// per-layer metrics with their sample counts and a self-time table on
// standard error, and writes the spans to a file.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit code is non-zero
// when any tick frame is missing or differs from the reference.
//
// Usage (run.sh builds both binaries first):
//
//	loadgen -sut bin/sut -workdir dir -workload archive-ticks -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	cfg := config{setups: 15}
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per pass")
	traceFlag := flag.Int("trace", 0, "1: traced pass and per-layer metrics")
	flag.StringVar(&cfg.sut, "sut", "", "system-under-test binary")
	flag.StringVar(&cfg.workdir, "workdir", ".", "directory for run data and span files")
	replayPosts := flag.Int("replay-posts", -1, "internal: run as the reference replay of this many POSTs")
	replayData := flag.String("replay-data", "", "internal: the reference's copy of the prepared data directory")
	flag.StringVar(&cfg.refMutation, "replay-mutate", "", "internal: break the reference on purpose (topk, skip-recovery)")
	flag.Parse()
	if *replayPosts >= 0 {
		if err := replayMain(os.Stdout, cfg.workload, cfg.seed, *replayPosts, *replayData, cfg.refMutation); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen reference: %v\n", err)
			os.Exit(1)
		}
		return
	}
	cfg.trace = *traceFlag == 1
	if cfg.sut == "" || flag.NArg() > 0 || (*traceFlag != 0 && *traceFlag != 1) {
		flag.Usage()
		os.Exit(2)
	}

	out, err := run(&cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("# " + machine())
	for _, line := range out.report {
		fmt.Fprintln(os.Stderr, line)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.correct, out.attempted, out.failed, map[string]metric{}}
	for _, m := range out.metrics {
		res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// machine describes where the result was measured.
func machine() string {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	return fmt.Sprintf("machine cpu=%q nproc=%d gomaxprocs=%d go=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}
