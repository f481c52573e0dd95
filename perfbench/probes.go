package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	rlscope "repro"
	"repro/internal/analysis"
	"repro/internal/calib"
	"repro/internal/fleet"
	"repro/internal/multihost"
	"repro/internal/overlap"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/workloads"
)

// probeInput names one workload's inputs for the per-layer probe pass.
// Every probe runs on every workload, over that workload's own inputs, so
// each per-layer metric exists on each workload; on a workload whose
// operations do not use a layer, the probe shows what that layer would
// cost there.
type probeInput struct {
	// dirs are the trace directories the workload reads or registers.
	dirs []string
	// hostDirs are read, merged and written back by the multihost probe
	// (one directory is a one-host merge).
	hostDirs []string
	// streamed are the traces the workload streams (or would stream) as
	// live 64 KiB frames.
	streamed []*trace.Trace
	// engineDirs are analyzed with the workload's Engine configuration;
	// an empty list means the merged output of hostDirs.
	engineDirs []string
	engine     func(workers int, cal *calib.Calibration) *rlscope.Engine
	// cal is the workload's calibration; nil makes the probe pass
	// calibrate (timed as calib.calibrate_s).
	cal *calib.Calibration
	// query is the fleet query the fleet probes execute over engineDirs.
	query fleet.Query
}

// probeReps is how many times each cheap probe repeats; the median is
// reported.
const probeReps = 3

// calibSpec is the short DDPG run calibration profiles (six runs).
func calibSpec(tiny bool, seed int64) workloads.Spec {
	steps := 150
	if tiny {
		steps = 100
	}
	return ddpg(steps, seed)
}

func calibrate(tiny bool, seed int64) (*calib.Calibration, error) {
	return calib.Calibrate(workloads.Runner(calibSpec(tiny, seed)), seed)
}

// runProbes makes one pass per layer over p and records every per-layer
// metric named in BENCHMARK.json.
func (b *bench) runProbes(p probeInput) error {
	b.traceThis = true
	defer func() { b.traceThis = false }()
	ctx := context.Background()
	scratch := b.dir("probe")

	// trace: planning, decoding, bytes at rest, digests.
	events := 0
	ms, err := b.timeLayer("trace.plan", probeReps, func() error {
		for _, d := range p.dirs {
			r, err := trace.OpenDir(d)
			if err != nil {
				return err
			}
			for i := 0; i < r.NumChunks(); i++ {
				if _, err := r.Index(i); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.layer("trace.plan_ms", ms, "ms")
	readers := make([]*trace.Reader, len(p.dirs))
	for i, d := range p.dirs {
		if readers[i], err = trace.OpenDir(d); err != nil {
			return err
		}
	}
	ms, err = b.timeLayer("trace.decode", probeReps, func() error {
		events = 0
		var buf []trace.Event
		for _, r := range readers {
			for i := 0; i < r.NumChunks(); i++ {
				if buf, err = r.ReadChunk(i, buf[:0]); err != nil {
					return err
				}
				events += len(buf)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.layer("trace.decode_ms", ms, "ms")
	atRest, err := dirBytes(p.dirs...)
	if err != nil {
		return err
	}
	b.layer("trace.bytes_per_event", float64(atRest)/float64(events), "count")
	ms, err = b.timeLayer("trace.digest", probeReps, func() error {
		for _, d := range p.dirs {
			if _, err := trace.DirDigest(d); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.layer("trace.digest_ms", ms, "ms")

	// trace + multihost: read the host dirs, merge in memory, write.
	var hosts []*trace.Trace
	ms, err = b.timeLayer("trace.read_dir", probeReps, func() error {
		hosts = hosts[:0]
		for _, d := range p.hostDirs {
			t, err := trace.ReadDir(d)
			if err != nil {
				return err
			}
			hosts = append(hosts, t)
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.layer("trace.read_dir_ms", ms, "ms")
	var merged *trace.Trace
	ms, err = b.timeLayer("multihost.merge_traces", probeReps, func() error {
		merged, _, err = multihost.MergeTraces(hosts, multihost.Options{})
		return err
	})
	if err != nil {
		return err
	}
	b.layer("multihost.merge_traces_ms", ms, "ms")
	mergedDir := scratch + "/merged"
	ms, err = b.timeLayer("trace.write", probeReps, func() error { return writeDir(mergedDir, merged) })
	if err != nil {
		return err
	}
	b.layer("trace.write_ms", ms, "ms")
	hosts, merged = nil, nil

	// trace + analysis: the live path over the streamed frames.
	if err := b.probeFrames(p.streamed, scratch); err != nil {
		return err
	}

	// overlap: one sweep per process of every analyzed trace.
	engineDirs := p.engineDirs
	if len(engineDirs) == 0 {
		engineDirs = []string{mergedDir}
	}
	var sweepTraces []*trace.Trace
	sweepEvents := 0
	for _, d := range engineDirs {
		t, err := trace.ReadDir(d)
		if err != nil {
			return err
		}
		t.Sort()
		sweepTraces = append(sweepTraces, t)
		sweepEvents += len(t.Events)
	}
	ms, err = b.timeLayer("overlap.sweep", probeReps, func() error {
		for _, t := range sweepTraces {
			for _, proc := range t.ProcIDs() {
				overlap.Compute(t.ProcEvents(proc))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	sweepTraces = nil
	b.layer("overlap.sweep_ms", ms, "ms")
	b.layer("overlap.sweep_ns_per_event", ms*1e6/float64(sweepEvents), "ns")

	// calib: the streaming corrector's pre-pass plus MapEvent over every
	// event of the workload's traces.
	cal := p.cal
	if cal == nil {
		sp := b.span(spanRef{}, "probe.calib.calibrate")
		start := time.Now()
		if cal, err = calibrate(b.cfg.tiny, b.cfg.seed+1); err != nil {
			return err
		}
		b.layer("calib.calibrate_s", time.Since(start).Seconds(), "s")
		sp.end()
	} else {
		b.layer("calib.calibrate_s", b.setupSteps["calib.calibrate"], "s")
	}
	ms, err = b.timeLayer("calib.correct", probeReps, func() error {
		var buf []trace.Event
		for _, d := range p.dirs {
			r, err := trace.OpenDir(d)
			if err != nil {
				return err
			}
			c, err := calib.NewStreamCorrector(ctx, r, cal, nil, nil)
			if err != nil {
				return err
			}
			for i := 0; i < r.NumChunks(); i++ {
				if buf, err = r.ReadChunk(i, buf[:0]); err != nil {
					return err
				}
				for j := range buf {
					c.MapEvent(&buf[j])
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.layer("calib.correct_ms", ms, "ms")

	return b.probeEngine(p, engineDirs, cal)
}

// probeFrames times the live-ingest path over the workload's traces cut
// into 64 KiB frames: client-side encode, server-side index derivation,
// the store's DirSink append, and an incremental replay (one epoch per
// frame, results read after each).
func (b *bench) probeFrames(streamed []*trace.Trace, scratch string) error {
	var frames []frame
	var batches [][]trace.Event
	var perTrace [][][]trace.Event // each trace's batches, replayed into its own Incremental
	for _, t := range streamed {
		fs, err := encodeFrames(t)
		if err != nil {
			return err
		}
		var tb [][]trace.Event
		for _, f := range fs {
			evs, err := trace.DecodeChunkBytes(f.chunk, nil)
			if err != nil {
				return err
			}
			tb = append(tb, evs)
		}
		frames = append(frames, fs...)
		batches = append(batches, tb...)
		perTrace = append(perTrace, tb)
	}
	ms, err := b.timeLayer("trace.encode", probeReps, func() error {
		for _, evs := range batches {
			if _, _, err := trace.EncodeEventsFormat(evs, trace.FormatV2); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.layer("trace.encode_ms", ms, "ms")
	sidecars := make([][]byte, len(frames))
	ms, err = b.timeLayer("trace.derive_index", probeReps, func() error {
		for i, f := range frames {
			evs, err := trace.DecodeChunkBytes(f.chunk, nil)
			if err != nil {
				return err
			}
			if sidecars[i], err = json.Marshal(trace.BuildChunkIndex(evs, int64(len(f.chunk)))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.layer("trace.derive_index_ms", ms, "ms")
	rep := 0
	ms, err = b.timeLayer("trace.sink_append", probeReps, func() error {
		rep++
		s, err := trace.NewDirSink(fmt.Sprintf("%s/sink-%d", scratch, rep))
		if err != nil {
			return err
		}
		for i, f := range frames {
			if _, err := s.Append(i, f.chunk, sidecars[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.layer("trace.sink_append_ms", ms, "ms")

	// One pass only: with one window per process, every Results call
	// re-sweeps the whole trace so far, so the replay costs seconds on
	// long-corrected.
	var apply, results time.Duration
	var stats analysis.IncrementalStats
	sp := b.span(spanRef{}, "probe.analysis.incremental")
	for _, tb := range perTrace {
		inc := analysis.NewIncremental()
		for _, evs := range tb {
			start := time.Now()
			inc.Apply([][]trace.Event{evs})
			mid := time.Now()
			inc.Results(nil)
			apply += mid.Sub(start)
			results += time.Since(mid)
		}
		st := inc.Stats()
		stats.Shards += st.Shards
		stats.Epochs += st.Epochs
		stats.Repartitions += st.Repartitions
	}
	sp.end()
	b.layer("analysis.incremental_apply_ms", float64(apply)/float64(time.Millisecond), "ms")
	b.layer("analysis.incremental_results_ms", float64(results)/float64(time.Millisecond), "ms")
	b.layer("analysis.incremental_shards_per_epoch", float64(stats.Shards)/float64(max(stats.Epochs, 1)), "count")
	b.layer("analysis.repartitions", float64(stats.Repartitions), "count")
	return nil
}

// probeEngine times the Engine, its allocations and pool scaling, report
// encoding and the fleet layer over the workload's analyzed traces.
func (b *bench) probeEngine(p probeInput, dirs []string, cal *calib.Calibration) error {
	ctx := context.Background()
	var reports []*rlscope.Report
	analyzeAll := func(workers int) error {
		reports = reports[:0]
		for _, d := range dirs {
			rep, err := p.engine(workers, cal).Analyze(ctx, rlscope.FromDir(d))
			if err != nil {
				return err
			}
			reports = append(reports, rep)
		}
		return nil
	}
	w1, err := b.timeLayer("analysis.engine_w1", probeReps, func() error { return analyzeAll(1) })
	if err != nil {
		return err
	}
	w2, err := b.timeLayer("analysis.engine", probeReps, func() error { return analyzeAll(engineWorkers) })
	if err != nil {
		return err
	}
	b.layer("analysis.engine_ms", w2, "ms")
	b.layer("analysis.engine_ms_w1", w1, "ms")
	b.layer("analysis.engine_ms_w2", w2, "ms")
	b.layer("analysis.pool_speedup", w1/w2, "ratio")

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := analyzeAll(engineWorkers); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	n := float64(len(dirs))
	b.layer("analysis.allocs_per_op", float64(after.Mallocs-before.Mallocs)/n, "count")
	b.layer("analysis.alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/n/(1<<20), "MB")
	var shards, evictions int
	var peak int64
	for _, rep := range reports {
		shards += rep.Stats.Shards
		evictions += rep.Stats.Evictions
		peak = max(peak, rep.Stats.PeakResidentBytes)
	}
	b.layer("analysis.shards", float64(shards), "count")
	b.layer("analysis.evictions", float64(evictions), "count")
	b.layer("analysis.peak_resident_mb", float64(peak)/(1<<20), "MB")

	ms, err := b.timeLayer("report.encode", probeReps, func() error {
		for _, rep := range reports {
			var buf bytes.Buffer
			if err := report.NewAnalysis(rep.Meta, rep.Results, rep.Stats, rep.Corrected).Encode(&buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.layer("report.encode_ms", ms, "ms")
	sets := make([][]byte, len(reports))
	for i, rep := range reports {
		var buf bytes.Buffer
		if err := report.EncodeResultSet(&buf, rep.Results); err != nil {
			return err
		}
		sets[i] = buf.Bytes()
	}
	decoded := map[string]map[trace.ProcID]*overlap.Result{}
	candidates := make([]fleet.Trace, len(reports))
	ms, err = b.timeLayer("report.resultset_decode", probeReps, func() error {
		for i, body := range sets {
			res, err := report.DecodeResultSet(body)
			if err != nil {
				return err
			}
			id := fmt.Sprintf("t%03d", i)
			decoded[id] = res
			candidates[i] = fleet.Trace{ID: id, Meta: reports[i].Meta}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.layer("report.resultset_decode_ms", ms, "ms")

	plan, err := fleet.Compile(p.query)
	if err != nil {
		return err
	}
	var doc *report.QueryDoc
	ms, err = b.timeLayer("fleet.execute", probeReps, func() error {
		doc, err = plan.Execute(ctx, candidates, func(_ context.Context, t fleet.Trace) (map[trace.ProcID]*overlap.Result, error) {
			return decoded[t.ID], nil
		})
		return err
	})
	if err != nil {
		return err
	}
	b.layer("fleet.execute_ms", ms, "ms")
	ms, err = b.timeLayer("report.query_encode", probeReps, func() error {
		var buf bytes.Buffer
		return doc.Encode(&buf)
	})
	if err != nil {
		return err
	}
	b.layer("report.query_encode_ms", ms, "ms")

	// analysis.MergeResult folds every per-process result into its
	// query group, the fold a fleet query performs.
	groupDim := fleet.DimWorkload
	if len(p.query.GroupBy) > 0 {
		groupDim = p.query.GroupBy[0]
	}
	ms, err = b.timeLayer("analysis.merge_result", probeReps, func() error {
		groups := map[string]*overlap.Result{}
		for _, c := range candidates {
			key := fleet.DimensionValue(c, groupDim)
			g := groups[key]
			if g == nil {
				g = &overlap.Result{ByKey: map[overlap.Key]vclock.Duration{}, Transitions: map[overlap.TransitionKey]int{}}
				groups[key] = g
			}
			for _, res := range decoded[c.ID] {
				analysis.MergeResult(g, res)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.layer("analysis.merge_result_ms", ms, "ms")
	b.layer("workloads.profile_s", b.setupSteps["workloads.profile"], "s")
	return nil
}
