package main

import (
	"bytes"
	"context"
	"time"

	rlscope "repro"
	"repro/internal/calib"
	"repro/internal/fleet"
	"repro/internal/report"
	"repro/internal/trace"
)

// long-corrected: the paper's overhead-corrected breakdown of one long
// training run under a memory budget far below the trace's decoded size,
// so the budget forces evictions on every analysis.

// longBudget is the analysis residency budget (256 KiB).
const longBudget = 256 << 10

type longState struct {
	dir string
	cal *calib.Calibration
}

func (s *longState) close() {}

// longSteps sizes the long run. The tiny run still spans two chunks: the
// budget can only evict at a chunk boundary, and every operation must evict.
func longSteps(tiny bool) int {
	if tiny {
		return 400 // ~190k events, two chunks
	}
	return 1100 // ~510k events
}

func setupLong(b *bench) (state, error) {
	st := &longState{dir: b.dir("long")}
	var t *trace.Trace
	err := b.step("workloads.profile", func() (err error) {
		t, err = profile(ddpg(longSteps(b.cfg.tiny), b.cfg.seed))
		return err
	})
	if err == nil {
		err = b.step("calib.calibrate", func() (err error) {
			st.cal, err = calibrate(b.cfg.tiny, b.cfg.seed+1)
			return err
		})
	}
	if err == nil {
		err = b.step("trace.write", func() error { return writeDir(st.dir, t) })
	}
	if err != nil {
		return nil, err
	}
	atRest, err := dirBytes(st.dir)
	if err != nil {
		return nil, err
	}
	chunks, err := chunkCount(st.dir)
	if err != nil {
		return nil, err
	}
	b.inputs["events"] = len(t.Events)
	b.inputs["chunks"] = chunks
	b.inputs["procs"] = len(t.Meta.Procs)
	b.inputs["bytes_at_rest"] = atRest
	b.inputs["budget_bytes"] = longBudget
	b.inputs["calibration_steps"] = calibSpec(b.cfg.tiny, 0).TotalSteps
	return st, nil
}

func longEngine(workers int, cal *calib.Calibration) *rlscope.Engine {
	return rlscope.NewEngine(rlscope.WithWorkers(workers), rlscope.WithCorrection(cal), rlscope.WithMaxResidentBytes(longBudget))
}

// resultOnly re-encodes an analysis document without its Stats block,
// whose scheduling fields depend on worker interleaving (see
// report.Analysis); the rest is a pure function of the trace and options.
func resultOnly(doc *report.Analysis) ([]byte, error) {
	c := *doc
	c.Stats = nil
	var buf bytes.Buffer
	err := c.Encode(&buf)
	return buf.Bytes(), err
}

func measureLong(b *bench, s state) error {
	st := s.(*longState)
	ctx := context.Background()
	var first []byte
	for start := time.Now(); !b.phaseOver(start, 1, "analyze_ms"); {
		settle()
		o := b.beginOp(0, "op.analyze")
		t0, c0 := time.Now(), cpuTime()
		sp := o.span("analysis.engine")
		rep, err := longEngine(engineWorkers, st.cal).Analyze(ctx, rlscope.FromDir(st.dir))
		sp.end()
		if err != nil {
			o.done("analyze_ms", t0)
			b.fail("analyze: %v", err)
			continue
		}
		sp = o.span("report.encode")
		doc := report.NewAnalysis(rep.Meta, rep.Results, rep.Stats, rep.Corrected)
		var buf bytes.Buffer
		err = doc.Encode(&buf)
		sp.end()
		b.recordCPU("op_cpu_ms", o.traced, c0)
		o.done("analyze_ms", t0)
		if err != nil {
			b.fail("encode: %v", err)
			continue
		}
		got, err := resultOnly(doc)
		switch {
		case err != nil:
			b.fail("encode: %v", err)
		case first == nil:
			first = got
		case !bytes.Equal(got, first):
			b.fail("analysis document differs from the first operation's")
		}
		if rep.Stats.Evictions == 0 {
			b.fail("budgeted analysis made no eviction")
		}
	}
	b.stopMeasure()

	// Untimed oracle: the streaming corrected analysis equals calib.Correct
	// followed by an unbudgeted in-memory analysis of the same trace.
	t, err := trace.ReadDir(st.dir)
	if err != nil {
		return err
	}
	rep, err := rlscope.NewEngine(rlscope.WithWorkers(engineWorkers)).Analyze(ctx, rlscope.FromTrace(calib.Correct(t, st.cal)))
	if err != nil {
		return err
	}
	want, err := resultOnly(report.NewAnalysis(rep.Meta, rep.Results, rep.Stats, true))
	if err != nil {
		return err
	}
	b.check(first != nil && bytes.Equal(first, want), "streaming corrected analysis differs from calib.Correct + in-memory analysis")
	return nil
}

func probeLong(b *bench, s state) error {
	st := s.(*longState)
	t, err := trace.ReadDir(st.dir)
	if err != nil {
		return err
	}
	return b.runProbes(probeInput{
		dirs:       []string{st.dir},
		hostDirs:   []string{st.dir},
		streamed:   []*trace.Trace{t},
		engineDirs: []string{st.dir},
		engine:     longEngine,
		cal:        st.cal,
		query:      fleet.Query{GroupBy: []string{fleet.DimWorkload}},
	})
}
