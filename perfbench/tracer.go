package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	rlscope "repro"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// span is one timed call from the benchmark into a layer. Spans of one
// operation share an op id; conn is the connection (process) it ran on.
type span struct {
	name       string
	start, end time.Duration // since the tracer's t0
	parent     int           // index into tracer.spans, -1 for a root
	op, conn   int
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// spanRef names an open span; the zero value is "not traced" and every
// method on it is a no-op.
type spanRef struct {
	t  *tracer
	id int
}

func (t *tracer) start(parent int, name string, op, conn int) spanRef {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, op: op, conn: conn})
	return spanRef{t, len(t.spans) - 1}
}

func (s spanRef) end() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.t0)
	s.t.mu.Lock()
	s.t.spans[s.id].end = now
	s.t.mu.Unlock()
}

// span opens a child of parent, or — with no parent — a root span on the
// benchmark's own connection when the current setup repetition or probe
// pass is traced. Otherwise it records nothing.
func (b *bench) span(parent spanRef, name string) spanRef {
	if parent.t != nil {
		parent.t.mu.Lock()
		p := parent.t.spans[parent.id]
		parent.t.mu.Unlock()
		return parent.t.start(parent.id, name, p.op, p.conn)
	}
	if b.tr != nil && b.traceThis {
		return b.tr.start(-1, name, 0, 0)
	}
	return spanRef{}
}

// connNames are the processes of the span trace: one per connection.
var connNames = []string{"bench", "writer", "reader"}

// writeSpans writes the run's spans as an RL-Scope trace directory — each
// span an operation annotation named after the layer call, each root span
// also a CPU event, one process per connection — then analyzes it with
// the unchanged Engine, so the overlap method breaks down the benchmark's
// own time by layer. `rlscope-analyze -trace <dir>` reads the same
// directory.
func (b *bench) writeSpans(out io.Writer, workload string) error {
	b.tr.mu.Lock()
	spans := append([]span(nil), b.tr.spans...)
	b.tr.mu.Unlock()
	var events []trace.Event
	meta := trace.Meta{
		Workload: "perfbench/" + workload,
		Config:   trace.FeatureFlags{Annotations: true},
		Procs:    map[trace.ProcID]trace.ProcInfo{},
	}
	used := map[int]bool{}
	for _, s := range spans {
		if s.end < s.start {
			continue // still open: the run ended inside it
		}
		p := trace.ProcID(s.conn)
		used[s.conn] = true
		start, end := vclock.Time(s.start.Nanoseconds()), vclock.Time(s.end.Nanoseconds())
		events = append(events, trace.Event{Kind: trace.KindOp, Proc: p, Start: start, End: end, Name: s.name})
		if s.parent < 0 {
			events = append(events, trace.Event{Kind: trace.KindCPU, Cat: trace.CatPython, Proc: p, Start: start, End: end, Name: "bench"})
		}
	}
	for c := range used {
		parent := trace.ProcID(-1)
		if c > 0 {
			parent = 0
		}
		meta.Procs[trace.ProcID(c)] = trace.ProcInfo{Name: connNames[c], Parent: parent}
	}
	dir := filepath.Join(b.cfg.root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d", workload, b.cfg.seed))
	w, err := trace.NewWriter(dir, 0, trace.WithFormat(trace.FormatV2))
	if err != nil {
		return err
	}
	w.Append(events...)
	if err := w.Close(meta); err != nil {
		return err
	}
	rep, err := rlscope.NewEngine(rlscope.WithWorkers(engineWorkers)).Analyze(context.Background(), rlscope.FromDir(dir))
	if err != nil {
		return fmt.Errorf("analyzing span trace: %w", err)
	}
	procs := make([]trace.ProcID, 0, len(rep.Results))
	for p := range rep.Results {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	var rows []*report.Breakdown
	for _, p := range procs {
		res := rep.Results[p]
		rows = append(rows, report.FromResult(meta.Procs[p].Name, res, report.SortedOps(res)))
	}
	fmt.Fprintf(out, "span trace: %d spans written to %s\n", len(spans), dir)
	fmt.Fprint(out, indent(report.Table("perfbench self-profile: benchmark time by layer call (RL-Scope overlap method)", rows)))
	return nil
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return "  " + strings.Join(lines, "\n  ") + "\n"
}
