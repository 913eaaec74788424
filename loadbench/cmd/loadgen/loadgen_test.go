package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"enblogue/loadbench/workload"
)

// The self-tests run the benchmark end to end in short smoke passes, with
// the system under test and the reference process built from source.
// Run them from the loadbench directory: go test ./...

var sutBin, selfBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "loadbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sutBin, selfBin = filepath.Join(dir, "sut"), filepath.Join(dir, "loadgen")
	for bin, pkg := range map[string]string{sutBin: "../sut", selfBin: "."} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "building %s: %v\n%s", pkg, err, out)
			os.RemoveAll(dir)
			os.Exit(1)
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

func smoke(t *testing.T, name string, traced bool, mutation string) *outcome {
	t.Helper()
	cfg := &config{
		workload: name, seed: 7, seconds: 1.5, trace: traced,
		sut: sutBin, self: selfBin, workdir: t.TempDir(), setups: 2,
		refMutation: mutation,
	}
	out, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return out
}

// TestSmokeEmitsEveryMetric runs a short untraced and traced pass of every
// workload: each must pass the correctness gate and emit exactly the
// metrics BENCHMARK.json names, with their units.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, spec := range workload.Specs {
		for _, traced := range []bool{false, true} {
			out := smoke(t, spec.Name, traced, "")
			if !out.correct || out.failed != 0 || out.attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s",
					spec.Name, traced, out.correct, out.failed, out.attempted, strings.Join(out.report, "\n"))
			}
			want := map[string]string{}
			if traced {
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			got := map[string]string{}
			for _, m := range out.metrics {
				got[m.name] = m.unit
			}
			if !mapsEqual(got, want) {
				t.Errorf("%s traced=%v: metrics %v, BENCHMARK.json names %v", spec.Name, traced, keys(got), keys(want))
			}
		}
	}
}

// TestWrongReferenceCaught proves the correctness gate has teeth: a
// reference with a different TopK, and a bounded-durable reference that
// skips recovery, must both fail it.
func TestWrongReferenceCaught(t *testing.T) {
	for _, c := range []struct{ workload, mutation string }{
		{"archive-ticks", mutateTopK},
		{"tweets-ingest", mutateTopK},
		{"bounded-durable", mutateSkipRecovery},
	} {
		out := smoke(t, c.workload, false, c.mutation)
		if out.correct || out.failed == 0 {
			t.Errorf("%s with reference %s: gate passed (failed=%d of %d)", c.workload, c.mutation, out.failed, out.attempted)
		}
	}
}

// TestWorkloadsMatchBenchmarkJSON checks that BENCHMARK.json names the
// workloads in order and states each one's fixed open-loop rate and POST
// size, which live in the workload package.
func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workload.Specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workload.Specs))
	}
	for i, spec := range workload.Specs {
		w := b.Workloads[i]
		rate := fmt.Sprintf("%.0f docs/s", spec.Rate)
		size := fmt.Sprintf("%d-doc POSTs", spec.PostDocs)
		if w.Name != spec.Name || !strings.Contains(w.Why, rate) || !strings.Contains(w.Why, size) {
			t.Errorf("workload %d: BENCHMARK.json %q %q, want name %q stating %q and %q", i, w.Name, w.Why, spec.Name, rate, size)
		}
	}
}

// TestTickClockMatchesEngine checks the generator's tick clock against the
// reference engine on the first POSTs of every workload.
func TestTickClockMatchesEngine(t *testing.T) {
	for _, spec := range workload.Specs {
		s, err := workload.NewStream(spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		clock := s.StartClock()
		var fired []int64
		posts := 40000 / spec.PostDocs
		for k := s.PostFirst(0); k < s.PostFirst(posts); k++ {
			for _, at := range clock.Advance(s.Time(k), nil) {
				fired = append(fired, at.UnixNano())
			}
		}
		env := &runEnv{cfg: &config{workload: spec.Name, seed: 3, self: selfBin}, stream: s, dir: t.TempDir()}
		if spec.Durable {
			env.template = filepath.Join(env.dir, "template")
			if err := s.Prepare(env.template); err != nil {
				t.Fatal(err)
			}
		}
		ref, _, err := env.replay(posts, 0)
		if err != nil {
			t.Fatal(err)
		}
		var want []int64
		for _, r := range ref {
			want = append(want, r.At)
		}
		if len(fired) == 0 || !slices.Equal(fired, want) {
			t.Errorf("%s: clock fired %d ticks, engine %d", spec.Name, len(fired), len(want))
		}
	}
}

func mapsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
