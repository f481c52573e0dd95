// Command perfbench is the repository's end-to-end benchmark. One run
// profiles a seeded input, sets up the layers one workload needs, measures
// that workload's operations for a fixed time, checks every output against
// an oracle and prints the metrics:
//
//	perfbench --workload long-corrected --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics every workload reports (see BENCHMARK.json); with
// --trace 1 they are the per-layer metrics of a separate traced run, which
// also records spans around the benchmark's calls into each package,
// writes them as an RL-Scope trace directory, and prints the tracing
// overhead against interleaved untraced operations. README.md explains
// why each workload exists and which metric each layer should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// workload is one named benchmark workload.
type workload struct {
	name string
	// setup builds every input and service the measured phase needs. It
	// runs several times (see setupMinReps); only the last state is kept.
	setup func(b *bench) (state, error)
	// measure runs the timed operations until the phase ends.
	measure func(b *bench, st state) error
	// probe makes one pass per layer over the same inputs (traced runs
	// only).
	probe func(b *bench, st state) error
}

// state is what one workload's setup hands to its measured phase.
type state interface{ close() }

var benchWorkloads = []workload{
	{name: "long-corrected", setup: setupLong, measure: measureLong, probe: probeLong},
	{name: "multi-proc", setup: setupMulti, measure: measureMulti, probe: probeMulti},
	{name: "serve-mixed", setup: setupServe, measure: measureServe, probe: probeServe},
}

// Setup runs at least setupMinReps times, and again until setupMaxReps
// repetitions or setupBudget of setup time have passed; setup_s is the
// median. A set-up of a few seconds runs three times; a short one runs up
// to nine, since the median of three short set-ups moves by more than the
// bound between identical runs.
const (
	setupMinReps = 3
	setupMaxReps = 9
	setupBudget  = 3 * time.Second
)

// minSamples is the sample count every latency tail needs: a p90 over 100
// samples has ten beyond it. The measured phase runs past --seconds (up to
// maxPhaseFactor times it) until every latency family has this many. The
// cap keeps a run's length bounded on a slow host; there the printed
// sample counts show which tails fell short.
const (
	minSamples     = 100
	maxPhaseFactor = 2
)

// engineWorkers fixes the Engine and server worker count, independent of
// GOMAXPROCS, so the load does not change with the host's CPU count.
const engineWorkers = 2

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every input to smoke-test size (the smoke test only).
	tiny bool
	// root is the directory the run reads and writes under.
	root string
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag))
	}
	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	cfg.root = wd
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	names := make([]string, len(benchWorkloads))
	for i, w := range benchWorkloads {
		names[i] = w.name
	}
	return names
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one workload end to end and returns its result line; the
// human-readable report goes to out.
func run(cfg config, out io.Writer) (*result, error) {
	var wl *workload
	for i := range benchWorkloads {
		if benchWorkloads[i].name == cfg.workload {
			wl = &benchWorkloads[i]
		}
	}
	if wl == nil {
		return nil, fmt.Errorf("unknown --workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	b, err := newBench(cfg)
	if err != nil {
		return nil, err
	}
	defer b.cleanup()

	host := hostRecord(cfg)
	checkHost(cfg.root, host, out)

	// Set up several times and keep the last; setup_s is the median. In a
	// traced run every other repetition is traced so the tracing overhead
	// on setup can be read off the same run.
	var st state
	setupTimes := map[bool][]float64{}
	var setupTotal time.Duration
	for rep := 0; rep < setupMinReps || (rep < setupMaxReps && setupTotal < setupBudget); rep++ {
		if st != nil {
			st.close()
			st = nil
			if err := os.RemoveAll(b.dir()); err != nil {
				return nil, err
			}
		}
		b.resetSetup(rep)
		b.traceThis = cfg.trace && rep%2 == 1
		start := time.Now()
		root := b.span(spanRef{}, "bench.setup")
		b.setupRoot = root
		st, err = wl.setup(b)
		root.end()
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", wl.name, err)
		}
		took := time.Since(start)
		setupTotal += took
		setupTimes[b.traceThis] = append(setupTimes[b.traceThis], took.Seconds())
	}
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	b.traceThis = false
	b.setupRoot = spanRef{}

	b.startMeasure()
	err = wl.measure(b, st)
	b.stopMeasure() // a no-op unless the workload returned early
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}

	allSetup := append(append([]float64{}, setupTimes[false]...), setupTimes[true]...)
	b.e2e["setup_s"] = metric{median(allSetup), "s"}
	b.counts["setup_s"] = len(allSetup)
	b.finishE2E()

	if cfg.trace {
		if err := wl.probe(b, st); err != nil {
			return nil, fmt.Errorf("%s probes: %w", wl.name, err)
		}
	}

	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%g trace=%v\n", wl.name, cfg.seed, cfg.seconds, cfg.trace)
	printJSONLine(out, "host", host)
	printJSONLine(out, "inputs", b.inputs)
	printMetrics(out, "end-to-end", b.e2e, b.counts)
	printMetrics(out, "workload detail", b.detail, b.counts)
	for _, f := range b.failures {
		fmt.Fprintln(out, "FAILED:", f)
	}
	fmt.Fprintf(out, "operations: attempted=%d failed=%d failed_frac=%g\n", b.attempted, b.failed, b.failedFrac())

	res := &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.e2e}
	if cfg.trace {
		printMetrics(out, "per-layer", b.layers, nil)
		b.printOverhead(out, setupTimes)
		if err := b.writeSpans(out, wl.name); err != nil {
			return nil, err
		}
		res.Metrics = b.layers
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return res, nil
}

func printJSONLine(out io.Writer, label string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(out, "%s: %v\n", label, err)
		return
	}
	fmt.Fprintf(out, "%s: %s\n", label, data)
}

func printMetrics(out io.Writer, title string, ms map[string]metric, counts map[string]int) {
	if len(ms) == 0 {
		return
	}
	fmt.Fprintf(out, "%s:\n", title)
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		fmt.Fprintf(out, "  %-40s %14.6g %s", n, m.Value, m.Unit)
		if c, ok := counts[n]; ok {
			fmt.Fprintf(out, "  (n=%d)", c)
		}
		fmt.Fprintln(out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
