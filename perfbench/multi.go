package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	rlscope "repro"
	"repro/internal/backend"
	"repro/internal/calib"
	"repro/internal/fleet"
	"repro/internal/multihost"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// multi-proc: what a user of a distributed actor/learner run pays between
// the run ending and reading the report — merge the per-host trace
// directories, then analyze the merged trace.

// multiActors is the number of actor hosts; with the learner that makes
// five host directories.
const multiActors = 4

type multiState struct {
	hostDirs []string
}

func (s *multiState) close() {}

func multiSpec(tiny bool, seed int64) workloads.DistributedSpec {
	steps := 100 // ~70k events over five hosts
	if tiny {
		steps = 20
	}
	return workloads.DistributedSpec{
		Actors: multiActors, Algo: "DDPG", Env: "Walker2D", Model: backend.Graph,
		TotalSteps: steps, Seed: seed,
	}
}

func setupMulti(b *bench) (state, error) {
	st := &multiState{}
	var runs []workloads.HostRun
	err := b.step("workloads.profile", func() (err error) {
		runs, err = workloads.RunDistributed(multiSpec(b.cfg.tiny, b.cfg.seed), trace.Full())
		return err
	})
	if err != nil {
		return nil, err
	}
	events := 0
	err = b.step("trace.write", func() error {
		for _, r := range runs {
			dir := b.dir("hosts", r.Host)
			if err := writeDir(dir, r.Trace); err != nil {
				return err
			}
			st.hostDirs = append(st.hostDirs, dir)
			events += len(r.Trace.Events)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	atRest, err := dirBytes(st.hostDirs...)
	if err != nil {
		return nil, err
	}
	chunks, err := chunkCount(st.hostDirs...)
	if err != nil {
		return nil, err
	}
	b.inputs["hosts"] = len(runs)
	b.inputs["events"] = events
	b.inputs["chunks"] = chunks
	b.inputs["procs"] = len(runs)
	b.inputs["bytes_at_rest"] = atRest
	return st, nil
}

func multiEngine(workers int, _ *calib.Calibration) *rlscope.Engine {
	return rlscope.NewEngine(rlscope.WithWorkers(workers))
}

func measureMulti(b *bench, s state) error {
	st := s.(*multiState)
	ctx := context.Background()
	var firstDigest string
	var firstDoc []byte
	for i, start := 0, time.Now(); !b.phaseOver(start, 1, "merge_ms", "analyze_ms"); i++ {
		dst := b.dir("merged", fmt.Sprint(i))
		settle()
		o := b.beginOp(0, "op.merge_analyze")
		t0, c0 := time.Now(), cpuTime()
		sp := o.span("multihost.merge")
		ms, err := multihost.Merge(dst, st.hostDirs, multihost.Options{})
		sp.end()
		b.record("merge_ms", o.traced, float64(time.Since(t0))/float64(time.Millisecond))
		if err != nil {
			o.end()
			b.fail("merge: %v", err)
			continue
		}
		t1 := time.Now()
		sp = o.span("analysis.engine")
		rep, err := multiEngine(engineWorkers, nil).Analyze(ctx, rlscope.FromDir(dst))
		sp.end()
		var doc *report.Analysis
		var buf bytes.Buffer
		if err == nil {
			sp = o.span("report.encode")
			doc = report.NewAnalysis(rep.Meta, rep.Results, rep.Stats, rep.Corrected)
			err = doc.Encode(&buf)
			sp.end()
		}
		b.recordCPU("op_cpu_ms", o.traced, c0)
		o.done("analyze_ms", t1)
		if err != nil {
			b.fail("analyze: %v", err)
			continue
		}
		// Oracle: every merge yields the same directory digest and the
		// same analysis as the first.
		got, err := resultOnly(doc)
		switch {
		case err != nil:
			b.fail("encode: %v", err)
		case firstDoc == nil:
			firstDigest, firstDoc = ms.Digest, got
		case ms.Digest != firstDigest:
			b.fail("merged digest %s differs from the first merge's %s", ms.Digest, firstDigest)
		case !bytes.Equal(got, firstDoc):
			b.fail("analysis of merge %d differs from the first", i)
		}
		// A merge must also match its directory's digest on disk.
		if d, err := trace.DirDigest(dst); err != nil || d != ms.Digest {
			b.fail("merged dir digest %q (err %v) differs from Merge's %q", d, err, ms.Digest)
		}
		if err := os.RemoveAll(dst); err != nil {
			return err
		}
	}
	b.stopMeasure()
	return nil
}

func probeMulti(b *bench, s state) error {
	st := s.(*multiState)
	var hosts []*trace.Trace
	for _, d := range st.hostDirs {
		t, err := trace.ReadDir(d)
		if err != nil {
			return err
		}
		hosts = append(hosts, t)
	}
	return b.runProbes(probeInput{
		dirs:     st.hostDirs,
		hostDirs: st.hostDirs,
		streamed: hosts,
		engine:   multiEngine,
		query:    fleet.Query{GroupBy: []string{fleet.DimHost}},
	})
}
