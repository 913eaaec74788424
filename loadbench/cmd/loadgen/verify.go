package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"enblogue"
	"enblogue/loadbench/workload"
)

// wireFrame is the part of an SSE RankingView frame the gate compares.
type wireFrame struct {
	At     time.Time `json:"at"`
	Seeds  []string  `json:"seeds"`
	Topics []struct {
		Tag1  string  `json:"tag1"`
		Tag2  string  `json:"tag2"`
		Score float64 `json:"score"`
	} `json:"topics"`
}

// refRanking is one reference ranking as the replay process reports it.
type refRanking struct {
	At     int64      `json:"at"`
	Seeds  []string   `json:"seeds"`
	Topics []refTopic `json:"topics"`
}

type refTopic struct {
	Tag1  string `json:"tag1"`
	Tag2  string `json:"tag2"`
	Score uint64 `json:"score"` // float64 bits
}

// Reference mutations, for the self-tests that prove a wrong reference is
// caught.
const (
	mutateTopK         = "topk"
	mutateSkipRecovery = "skip-recovery"
)

// replay runs the reference in a fresh process of this binary and returns
// every ranking it published. A fresh process matters: tags are interned
// process-wide in first-seen order, and with the tail sketch on a pair's
// shard — so its tail — follows its interned IDs. The system under test
// interns in recovery-then-stream order, and so does a fresh reference;
// this process has already interned the prepared history.
func (env *runEnv) replay(posts, id int) ([]refRanking, int, error) {
	self := env.cfg.self
	if self == "" {
		var err error
		if self, err = os.Executable(); err != nil {
			return nil, 0, err
		}
	}
	args := []string{
		"-workload", env.cfg.workload,
		"-seed", strconv.FormatInt(env.cfg.seed, 10),
		"-replay-posts", strconv.Itoa(posts),
		"-replay-mutate", env.cfg.refMutation,
	}
	if env.stream.Spec.Durable {
		dir := filepath.Join(env.dir, fmt.Sprintf("ref-%d", id))
		if env.cfg.refMutation != mutateSkipRecovery {
			if err := copyDir(dir, filepath.Join(env.template, workload.Tenant)); err != nil {
				return nil, 0, err
			}
		}
		args = append(args, "-replay-data", dir)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	var got []refRanking
	shards := 0
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 0, 1<<16), 16<<20)
	for sc.Scan() {
		if n, ok := strings.CutPrefix(sc.Text(), "shards "); ok {
			shards, err = strconv.Atoi(n)
			continue
		}
		var r refRanking
		if err == nil {
			err = json.Unmarshal(sc.Bytes(), &r)
		}
		got = append(got, r)
	}
	err = errors.Join(err, sc.Err(), cmd.Wait())
	return got, shards, err
}

// replayMain is the reference process: it feeds exactly the documents the
// acknowledged POSTs carried — decoded from the same bytes the server
// decodes — through an in-process engine with the system under test's
// options, recovered from an identical copy of the prepared data directory
// for durable workloads, and writes every ranking it publishes to w as
// JSONL, then "shards N".
func replayMain(w io.Writer, name string, seed int64, posts int, dataDir, mutation string) error {
	spec, err := workload.Lookup(name)
	if err != nil {
		return err
	}
	stream, err := workload.NewStream(spec, seed)
	if err != nil {
		return err
	}
	opts := spec.Options()
	if mutation == mutateTopK {
		opts = append(opts, enblogue.WithTopK(3))
	}
	if dataDir != "" {
		opts = append(opts, enblogue.WithDurability(dataDir, workload.DurabilityOptions()...))
	}
	e := enblogue.New(opts...)
	sub := e.Subscribe(context.Background(), enblogue.SubBuffer(1<<16))
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	var encErr error
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for n := range sub.Notifications() {
			r := n.Ranking()
			rr := refRanking{At: r.At.UnixNano(), Seeds: r.Seeds}
			for _, t := range r.Topics {
				rr.Topics = append(rr.Topics, refTopic{t.Pair.Tag1(), t.Pair.Tag2(), math.Float64bits(t.Score)})
			}
			if encErr == nil {
				encErr = enc.Encode(&rr)
			}
		}
	}()

	// Decoding runs ahead of the engine on its own goroutine.
	type decoded struct {
		items enblogue.Items
		err   error
	}
	ch := make(chan decoded, 4) // a few POSTs of read-ahead keep the engine busy
	go func() {
		defer close(ch)
		var buf []byte
		for j := 0; j < posts; j++ {
			var d decoded
			buf, d.items, d.err = stream.PostItems(buf, j)
			ch <- d
			if d.err != nil {
				return
			}
		}
	}()
	for d := range ch {
		if d.err != nil {
			err = d.err
			continue
		}
		if err == nil {
			e.ConsumeBatch(d.items)
		}
	}
	shards := e.Shards()
	e.Close()
	<-collected
	if err == nil && sub.Dropped() != 0 {
		err = fmt.Errorf("reference subscription dropped %d rankings", sub.Dropped())
	}
	if err = errors.Join(err, encErr); err != nil {
		return err
	}
	fmt.Fprintf(bw, "shards %d\n", shards)
	return bw.Flush()
}

// checkAll checks passes two at a time, as the machine has two CPUs.
func (env *runEnv) checkAll(passes []*pass, out *outcome) error {
	refs := make([][]refRanking, len(passes))
	shards := make([]int, len(passes))
	errs := make([]error, len(passes))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for i, ps := range passes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			refs[i], shards[i], errs[i] = env.replay(acked(ps), i)
		}()
	}
	wg.Wait()
	for i, ps := range passes {
		if errs[i] != nil {
			return fmt.Errorf("reference replay: %w", errs[i])
		}
		if err := env.check(ps, refs[i], shards[i], out); err != nil {
			return err
		}
	}
	return nil
}

// acked is the number of leading POSTs the system under test acknowledged.
func acked(ps *pass) int {
	n := 0
	for n < len(ps.posts) && ps.posts[n].ok {
		n++
	}
	return n
}

// check replays the pass's acknowledged documents through the reference
// and compares every tick frame the generator read against it. A frame
// that is missing, duplicated, unexpected or different counts as failed;
// any of them makes the outcome incorrect.
func (env *runEnv) check(ps *pass, ref []refRanking, shards int, out *outcome) error {
	if shards != ps.shards {
		return fmt.Errorf("reference runs %d shards, system under test %d: same options must give same defaults", shards, ps.shards)
	}
	out.attempted += int64(len(ps.posts) + len(ref))
	failed := int64(len(ps.posts)-acked(ps)) + int64(ps.badFrames+ps.dupFrames)

	// The generator's own tick clock decides which POST carried each
	// tick; it must agree with the engine on what ticks fired.
	var firstDiff string
	if ps.postErr == nil {
		want := make([]int64, 0, len(ref))
		for _, r := range ref {
			want = append(want, r.At)
		}
		if !slices.Equal(want, ps.p.ticks) {
			failed++
			firstDiff = fmt.Sprintf("generator tick clock fired %d ticks, reference %d", len(ps.p.ticks), len(want))
		}
	}

	seen := make(map[int64]bool, len(ref))
	for i := range ref {
		r := &ref[i]
		seen[r.At] = true
		f := ps.frames[r.At]
		if f == nil {
			failed++
			if firstDiff == "" {
				firstDiff = fmt.Sprintf("tick %s: no frame", stamp(r.At))
			}
			continue
		}
		if d := diffFrame(f.data, r); d != "" {
			failed++
			if firstDiff == "" {
				firstDiff = fmt.Sprintf("tick %s: %s", stamp(r.At), d)
			}
		}
	}
	// A frame at a tick the reference never fired is wrong too, except
	// the recovered ranking a durable tenant may hold before the run.
	start := env.stream.StartClock().Next().UnixNano()
	for at := range ps.frames {
		if !seen[at] && at >= start {
			failed++
			if firstDiff == "" {
				firstDiff = fmt.Sprintf("tick %s: frame the reference never published", stamp(at))
			}
		}
	}
	out.failed += failed
	if failed > 0 {
		out.correct = false
		msg := fmt.Sprintf("correctness gate: %d of %d POSTs+ticks failed", failed, len(ps.posts)+len(ref))
		if firstDiff != "" {
			msg += "; first: " + firstDiff
		}
		if ps.postErr != nil {
			msg += "; " + ps.postErr.Error()
		}
		out.report = append(out.report, msg)
	}
	return nil
}

func stamp(ns int64) string { return time.Unix(0, ns).UTC().Format(time.RFC3339) }

// diffFrame compares one frame with the reference ranking: tick time,
// seeds, and every topic's pair and score bits.
func diffFrame(data []byte, r *refRanking) string {
	var f wireFrame
	if err := json.Unmarshal(data, &f); err != nil {
		return "undecodable frame: " + err.Error()
	}
	switch {
	case f.At.UnixNano() != r.At:
		return "tick time differs"
	case !slices.Equal(f.Seeds, r.Seeds) && (len(f.Seeds) != 0 || len(r.Seeds) != 0):
		return "seeds differ"
	case len(f.Topics) != len(r.Topics):
		return fmt.Sprintf("%d topics, reference %d", len(f.Topics), len(r.Topics))
	}
	for i, t := range f.Topics {
		rt := &r.Topics[i]
		if t.Tag1 != rt.Tag1 || t.Tag2 != rt.Tag2 {
			return fmt.Sprintf("topic %d is %s+%s, reference %s+%s", i+1, t.Tag1, t.Tag2, rt.Tag1, rt.Tag2)
		}
		if math.Float64bits(t.Score) != rt.Score {
			return fmt.Sprintf("topic %d score %v, reference %v", i+1, t.Score, math.Float64frombits(rt.Score))
		}
	}
	return ""
}
