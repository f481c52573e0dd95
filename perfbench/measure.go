package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// bench is the state of one run: its scratch directory, the samples and
// counters its operations record, and (in traced runs) the span recorder.
type bench struct {
	cfg  config
	work string // scratch directory, removed at the end of the run
	tr   *tracer

	// traceThis marks the current setup repetition or probe pass as
	// traced; setupRoot is its root span.
	traceThis bool
	setupRoot spanRef

	inputs map[string]any
	e2e    map[string]metric
	detail map[string]metric
	layers map[string]metric
	counts map[string]int
	// rep is the current setup repetition; each gets its own directory.
	rep int
	// setupSteps holds the current setup repetition's wall time per named
	// step (workloads.profile, calib.calibrate, ...).
	setupSteps map[string]float64

	mu        sync.Mutex
	samples   map[bool]map[string][]float64 // traced? → family → ms
	attempted int
	failed    int
	failures  []string
	nops      int

	rssStop  chan struct{}
	rssDone  chan struct{}
	rssPeaks []float64 // per-window RSS high-water marks, MB
	cpuStart []float64 // /proc/stat CPU ticks when the phase started
}

// gatedLatencies are the latency metrics in BENCHMARK.json's end-to-end
// list: the median CPU time of one operation of each workload's sequential
// loop (an analysis; a merge plus analysis; one streamed live run). Every
// other latency, the wall times included, is reported as workload detail:
// on a shared 2-CPU host the wall-time medians of ten identical runs spread
// past the largest allowed bound when the hypervisor withholds CPU, while
// the process's CPU time leaves that time out (see README.md).
var gatedLatencies = map[string]bool{"op_cpu_ms_p50": true}

func newBench(cfg config) (*bench, error) {
	base := filepath.Join(cfg.root, ".bench_build", "work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(base, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	b := &bench{
		cfg:        cfg,
		work:       work,
		inputs:     map[string]any{},
		e2e:        map[string]metric{},
		detail:     map[string]metric{},
		layers:     map[string]metric{},
		counts:     map[string]int{},
		setupSteps: map[string]float64{},
		samples:    map[bool]map[string][]float64{false: {}, true: {}},
	}
	if cfg.trace {
		b.tr = &tracer{t0: time.Now()}
	}
	return b, nil
}

func (b *bench) cleanup() { os.RemoveAll(b.work) }

// resetSetup starts setup repetition rep: a fresh directory, no step times.
func (b *bench) resetSetup(rep int) {
	b.rep = rep
	b.setupSteps = map[string]float64{}
}

// step times one named setup step and records it, traced or not, so the
// last repetition's split is reported beside setup_s.
func (b *bench) step(name string, fn func() error) error {
	sp := b.span(b.setupRoot, name)
	start := time.Now()
	err := fn()
	b.setupSteps[name] += time.Since(start).Seconds()
	sp.end()
	return err
}

// dir returns a path under the current setup repetition's directory.
func (b *bench) dir(parts ...string) string {
	return filepath.Join(append([]string{b.work, fmt.Sprintf("rep%d", b.rep)}, parts...)...)
}

// rssWindow is the length of one peak-RSS sampling window.
const rssWindow = 250 * time.Millisecond

// startMeasure releases setup garbage and starts sampling the RSS
// high-water mark, so the RSS metrics cover the measured phase only. The
// sampler reads VmHWM and resets it (via /proc/self/clear_refs) once per
// window.
func (b *bench) startMeasure() {
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		b.note("peak RSS not reset: %v", err)
	}
	b.cpuStart = readCPUTicks()
	b.rssStop = make(chan struct{})
	b.rssDone = make(chan struct{})
	go func() {
		defer close(b.rssDone)
		t := time.NewTicker(rssWindow)
		defer t.Stop()
		for {
			select {
			case <-b.rssStop:
				return
			case <-t.C:
				b.sampleRSS()
			}
		}
	}()
}

// sampleRSS closes one RSS window: it records the window's high-water
// mark and resets it for the next window.
func (b *bench) sampleRSS() {
	hwm, err := peakRSSMB()
	if err == nil {
		err = resetPeakRSS()
	}
	if err != nil {
		return
	}
	b.mu.Lock()
	b.rssPeaks = append(b.rssPeaks, hwm)
	b.mu.Unlock()
}

func resetPeakRSS() error { return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// readCPUTicks returns the host-wide CPU tick counters from /proc/stat
// (user, nice, system, idle, iowait, irq, softirq, steal, ...), or nil.
func readCPUTicks() []float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil
	}
	ticks := make([]float64, 0, len(fields)-1)
	for _, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil
		}
		ticks = append(ticks, v)
	}
	return ticks
}

// stopMeasure ends the RSS sampling; a workload calls it when its timed
// phase ends, before any untimed oracle work. peak_rss_mb is the phase's
// RSS high-water mark: the largest of the windows' marks, since each window
// starts from the mark's reset. It is one extreme value, decided partly by
// where a garbage collection fell, and moves by more than the largest
// bound between identical runs, so it is printed but not gated. The gated
// rss_window_mb_p50 is the median window's mark: the resident size the
// phase holds most of the time.
func (b *bench) stopMeasure() {
	if b.rssStop == nil {
		return // already stopped
	}
	close(b.rssStop)
	<-b.rssDone
	b.rssStop = nil
	b.sampleRSS()
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.rssPeaks) == 0 {
		b.note("peak RSS unavailable")
		return
	}
	b.e2e["rss_window_mb_p50"] = metric{median(b.rssPeaks), "MB"}
	b.counts["rss_window_mb_p50"] = len(b.rssPeaks)
	b.detail["peak_rss_mb"] = metric{slices.Max(b.rssPeaks), "MB"}
	// The share of the host's CPU time the hypervisor gave to other
	// machines during the phase: on a shared host it explains latency
	// shifts between otherwise identical runs.
	if end := readCPUTicks(); end != nil && b.cpuStart != nil {
		var total float64
		for i := range end {
			total += end[i] - b.cpuStart[i]
		}
		if total > 0 && len(end) > 7 {
			b.detail["host.steal_frac"] = metric{(end[7] - b.cpuStart[7]) / total, "ratio"}
		}
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// phaseOver reports whether a measured phase that started at start has run
// long enough: --seconds × share have passed and every listed latency
// family has minSamples, or the phase has run maxPhaseFactor times longer.
func (b *bench) phaseOver(start time.Time, share float64, families ...string) bool {
	elapsed := time.Since(start).Seconds()
	want := b.cfg.seconds * share
	if elapsed >= want*maxPhaseFactor {
		return true
	}
	if elapsed < want {
		return false
	}
	if b.cfg.tiny {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, f := range families {
		if len(b.samples[false][f])+len(b.samples[true][f]) < minSamples {
			return false
		}
	}
	return true
}

// settle collects the previous operation's garbage before the next one
// starts, untimed. An offline analysis is one CLI invocation on a fresh
// heap; without this, when the collector runs — and how high the heap
// peaks — depends on how much garbage earlier operations left behind.
func settle() { runtime.GC() }

// op is one timed operation. In a traced run every other operation is
// traced: it records a root span and its children; the rest record none,
// so the two halves give the tracing overhead.
type op struct {
	b      *bench
	traced bool
	root   spanRef
}

// beginOp starts an operation on connection conn (0 is the benchmark's own
// goroutine, 1 the serve-mixed writer, 2 its reader).
func (b *bench) beginOp(conn int, name string) *op {
	b.mu.Lock()
	b.nops++
	id := b.nops
	b.attempted++
	b.mu.Unlock()
	o := &op{b: b, traced: b.tr != nil && id%2 == 0}
	if o.traced {
		o.root = b.tr.start(-1, name, id, conn)
	}
	return o
}

// span opens a child span of the operation (a no-op when untraced).
func (o *op) span(name string) spanRef { return o.b.span(o.root, name) }

// done ends the operation and records its latency, measured from from.
func (o *op) done(family string, from time.Time) {
	o.b.record(family, o.traced, float64(time.Since(from))/float64(time.Millisecond))
	o.root.end()
}

// end ends an operation that records no latency sample.
func (o *op) end() { o.root.end() }

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuTime returns the CPU time all of the process's threads have used, in
// nanoseconds (getrusage rounds to microseconds). The kernel leaves out
// time the hypervisor gave to other machines.
func cpuTime() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// recordCPU adds one CPU-time sample: the process CPU time since from.
func (b *bench) recordCPU(family string, traced bool, from time.Duration) {
	b.record(family, traced, float64(cpuTime()-from)/float64(time.Millisecond))
}

// record adds one latency sample.
func (b *bench) record(family string, traced bool, ms float64) {
	b.mu.Lock()
	b.samples[traced][family] = append(b.samples[traced][family], ms)
	b.mu.Unlock()
}

// fail counts the current operation as failed.
func (b *bench) fail(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed++
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one untimed oracle check as an operation of its own.
func (b *bench) check(ok bool, format string, args ...any) {
	b.mu.Lock()
	b.attempted++
	b.mu.Unlock()
	if !ok {
		b.fail(format, args...)
	}
}

func (b *bench) note(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func (b *bench) failedFrac() float64 {
	if b.attempted == 0 {
		return 0
	}
	return float64(b.failed) / float64(b.attempted)
}

// finishE2E turns the untraced latency samples into p50/p90 metrics.
func (b *bench) finishE2E() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for family, vals := range b.samples[false] {
		for _, q := range []struct {
			suffix string
			q      float64
		}{{"_p50", 0.5}, {"_p90", 0.9}} {
			name := family + q.suffix
			dst := b.detail
			if gatedLatencies[name] {
				dst = b.e2e
			}
			dst[name] = metric{quantile(vals, q.q), "ms"}
			b.counts[name] = len(vals)
		}
	}
	b.detail["failed_frac"] = metric{b.failedFrac(), "ratio"}
	for name, s := range b.setupSteps {
		b.detail["setup."+name+"_s"] = metric{s, "s"}
	}
}

// quantile returns the q-quantile of vals by linear interpolation between
// order statistics.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// printOverhead prints, per end-to-end metric, the traced median minus the
// untraced median from the interleaved halves of this run.
func (b *bench) printOverhead(out io.Writer, setupTimes map[bool][]float64) {
	fmt.Fprintln(out, "tracing overhead (traced median - untraced median):")
	if len(setupTimes[true]) > 0 {
		fmt.Fprintf(out, "  %-40s %+.6f s\n", "setup_s", median(setupTimes[true])-median(setupTimes[false]))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	families := make([]string, 0, len(b.samples[true]))
	for f := range b.samples[true] {
		families = append(families, f)
	}
	sort.Strings(families)
	for _, f := range families {
		tr, un := b.samples[true][f], b.samples[false][f]
		if len(un) == 0 {
			continue
		}
		for _, q := range []struct {
			suffix string
			q      float64
		}{{"_p50", 0.5}, {"_p90", 0.9}} {
			t, u := quantile(tr, q.q), quantile(un, q.q)
			fmt.Fprintf(out, "  %-40s %+.4f ms (traced %.4f over %d, untraced %.4f over %d)\n",
				f+q.suffix, t-u, t, len(tr), u, len(un))
		}
	}
	fmt.Fprintf(out, "  %-40s not separable: traced and untraced operations share one process\n", "peak_rss_mb, rss_window_mb_p50")
}

// timeLayer runs fn reps times as a traced probe and returns the median
// wall time in milliseconds.
func (b *bench) timeLayer(name string, reps int, fn func() error) (float64, error) {
	var ms []float64
	for i := 0; i < reps; i++ {
		sp := b.span(spanRef{}, "probe."+name)
		start := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("probe %s: %w", name, err)
		}
		ms = append(ms, float64(time.Since(start))/float64(time.Millisecond))
		sp.end()
	}
	return median(ms), nil
}

// layer records one per-layer metric.
func (b *bench) layer(name string, v float64, unit string) { b.layers[name] = metric{v, unit} }
