package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	rlscope "repro"
	"repro/client"
	"repro/internal/backend"
	"repro/internal/calib"
	"repro/internal/fleet"
	"repro/internal/minigo"
	"repro/internal/overlap"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// serve-mixed: writes beside reads on one in-process rlscope server. A
// writer connection streams live runs in an open loop while a reader
// connection analyzes the open trace, runs fleet queries and analyzes
// registered traces in a closed loop.

// offeredChunksPerSec is the open-loop writer's fixed offered rate of
// 64 KiB live chunks: about half of the closed-loop ingest capacity
// measured on the recorded host (perfbench/host.json). It is a constant so
// every run offers the same load; it is never adapted to the host.
const offeredChunksPerSec = 40

// readerThink is the closed-loop reader's pause between requests, as a
// dashboard user has. Without it the reader alone keeps one CPU busy, and
// on a 2-CPU host the latencies then measure how much CPU the host
// withheld rather than the requests.
const readerThink = 2 * time.Millisecond

// capacityShare is the share of --seconds spent in the closed-loop
// capacity phase; the mixed phase gets the rest. The capacity phase's
// streamed runs are the op_cpu_ms samples: at --seconds 15 this share
// gives about 40 of them, and the mixed phase still gets 100 samples of
// each latency family.
const capacityShare = 0.4

type serveState struct {
	srv      *serve.Server
	hts      *httptest.Server
	storeDir string
	writer   *client.Client
	reader   *client.Client
	readerHC *http.Client
	closers  []func()

	fleetIDs  []string          // every registered id, duplicates included
	fleetDirs map[string]string // id → directory
	distinct  []string          // one id per distinct content
	// expectDoc is each registered id's offline result-only document.
	expectDoc map[string][]byte
	queries   []fleet.Query
	expectQ   [][]byte

	capacity *trace.Trace
	live     []liveRun
}

// liveRun is one seeded run the open-loop writer streams.
type liveRun struct {
	frames []frame
	meta   trace.Meta
	events int
}

func (s *serveState) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// fleetSpecs is the registered fleet: every algorithm under every
// framework, sized so each run stays small (off-policy algorithms stop
// before their first update).
func fleetSpecs(tiny bool, seed int64) []workloads.Spec {
	steps := map[string]int{"DQN": 300, "DDPG": 60, "TD3": 60, "SAC": 60, "A2C": 600, "PPO2": 300}
	models := []backend.ExecModel{backend.Graph, backend.Autograph, backend.EagerTF, backend.EagerPyTorch}
	var specs []workloads.Spec
	for _, algo := range workloads.AlgorithmNames {
		env := "Hopper"
		if algo == "DQN" {
			env = "Pong"
		}
		n := steps[algo]
		if tiny {
			n = max(n/5, 20)
		}
		for _, m := range models {
			specs = append(specs, workloads.Spec{Algo: algo, Env: env, Model: m, TotalSteps: n, Seed: seed + int64(len(specs))})
		}
	}
	if tiny {
		specs = specs[:6]
	}
	return specs
}

// liveSpecs are the runs streamed live: the first is the closed-loop
// capacity stream, the rest feed the open-loop writer in turn.
func liveSpecs(tiny bool, seed int64) []workloads.Spec {
	steps := 300
	if tiny {
		steps = 110
	}
	return []workloads.Spec{
		{Algo: "DDPG", Env: "Walker2D", Model: backend.Graph, TotalSteps: steps, Seed: seed + 100},
		{Algo: "DDPG", Env: "Hopper", Model: backend.EagerPyTorch, TotalSteps: steps, Seed: seed + 101},
		{Algo: "SAC", Env: "HalfCheetah", Model: backend.Autograph, TotalSteps: steps, Seed: seed + 102},
	}
}

func labelled(t *trace.Trace, spec workloads.Spec, source string) {
	t.Meta.Labels = map[string]string{
		"algo": spec.Algo, "framework": spec.Model.String(), "env": spec.Env, "source": source,
	}
}

func setupServe(b *bench) (state, error) {
	st := &serveState{fleetDirs: map[string]string{}, expectDoc: map[string][]byte{}}
	ok := false
	defer func() {
		if !ok {
			st.close()
		}
	}()
	var fleetTraces []*trace.Trace
	var liveTraces []*trace.Trace
	err := b.step("workloads.profile", func() error {
		for _, spec := range fleetSpecs(b.cfg.tiny, b.cfg.seed) {
			t, err := profile(spec)
			if err != nil {
				return err
			}
			labelled(t, spec, "fleet")
			fleetTraces = append(fleetTraces, t)
		}
		cfg := minigo.DefaultConfig()
		cfg.Workers, cfg.Seed = 4, b.cfg.seed+200
		if b.cfg.tiny {
			cfg.Workers, cfg.SimsPerMove, cfg.MaxMovesPerGame = 2, 8, 10
		}
		res, err := minigo.Run(cfg)
		if err != nil {
			return err
		}
		res.Trace.Meta.Host = "bench"
		res.Trace.Meta.Labels = map[string]string{"algo": "minigo", "framework": "TensorFlow Graph", "env": "Go", "source": "fleet"}
		fleetTraces = append(fleetTraces, res.Trace)
		for _, spec := range liveSpecs(b.cfg.tiny, b.cfg.seed) {
			t, err := profile(spec)
			if err != nil {
				return err
			}
			labelled(t, spec, "live")
			liveTraces = append(liveTraces, t)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	st.capacity = liveTraces[0]
	err = b.step("trace.write", func() error {
		for i, t := range fleetTraces {
			dir := b.dir("fleet", fmt.Sprintf("run%02d", i))
			if err := writeDir(dir, t); err != nil {
				return err
			}
			st.distinct = append(st.distinct, fmt.Sprintf("run%02d", i))
			st.fleetDirs[fmt.Sprintf("run%02d", i)] = dir
		}
		for _, t := range liveTraces[1:] {
			frames, err := encodeFrames(t)
			if err != nil {
				return err
			}
			st.live = append(st.live, liveRun{frames: frames, meta: t.Meta, events: len(t.Events)})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Offline oracles: each registered trace's result-only document, and
	// every query's document from a local Engine loader, as rlscope-query
	// computes them.
	offline := map[string]map[trace.ProcID]*overlap.Result{}
	candidates := []fleet.Trace{}
	err = b.step("oracle.offline", func() error {
		for _, id := range st.distinct {
			rep, err := rlscope.NewEngine(rlscope.WithWorkers(engineWorkers)).Analyze(context.Background(), rlscope.FromDir(st.fleetDirs[id]))
			if err != nil {
				return err
			}
			doc, err := resultOnly(report.NewAnalysis(rep.Meta, rep.Results, rep.Stats, false))
			if err != nil {
				return err
			}
			st.expectDoc[id] = doc
			offline[id] = rep.Results
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	err = b.step("serve.start", func() error {
		st.storeDir = b.dir("store")
		srv, err := serve.NewServerStrict(serve.Config{
			MaxWorkers: engineWorkers,
			StoreDir:   st.storeDir,
			ReportDir:  b.dir("reports"),
		})
		if err != nil {
			return err
		}
		st.srv = srv
		st.closers = append(st.closers, srv.Close)
		st.hts = httptest.NewServer(srv.Handler())
		st.closers = append(st.closers, st.hts.Close)
		// One connection each: the writer and the reader.
		wt := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		rt := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		st.closers = append(st.closers, wt.CloseIdleConnections, rt.CloseIdleConnections)
		st.writer = client.New(st.hts.URL, client.WithHTTPClient(&http.Client{Transport: wt}), client.WithRetries(0))
		st.readerHC = &http.Client{Transport: rt}
		st.reader = client.New(st.hts.URL, client.WithHTTPClient(st.readerHC), client.WithRetries(0))
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Register the fleet; every third run a second time under a new id,
	// so those ids share content (and cache entries) with another.
	err = b.step("serve.register", func() error {
		for i, id := range st.distinct {
			ids := []string{id}
			if i%3 == 0 {
				ids = append(ids, id+"-dup")
				st.fleetDirs[id+"-dup"] = st.fleetDirs[id]
				st.expectDoc[id+"-dup"] = st.expectDoc[id]
			}
			for _, rid := range ids {
				if _, err := st.srv.AddDir(rid, st.fleetDirs[id]); err != nil {
					return err
				}
				st.fleetIDs = append(st.fleetIDs, rid)
				candidates = append(candidates, fleet.Trace{ID: rid, Meta: fleetTraces[i].Meta})
				offline[rid] = offline[id]
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fleetOnly := map[string]string{"label.source": "fleet"}
	st.queries = []fleet.Query{
		{Filter: fleetOnly, GroupBy: []string{"label.algo"}},
		{Filter: fleetOnly, GroupBy: []string{"label.algo"}, Metrics: []string{fleet.MetricTotalNS, fleet.MetricGPUFrac, fleet.MetricTransitions},
			Compare: &fleet.Compare{Baseline: map[string]string{"label.algo": "DQN"}}},
	}
	for _, q := range st.queries {
		plan, err := fleet.Compile(q)
		if err != nil {
			return nil, err
		}
		doc, err := plan.Execute(context.Background(), candidates, func(_ context.Context, t fleet.Trace) (map[trace.ProcID]*overlap.Result, error) {
			return offline[t.ID], nil
		})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := doc.Encode(&buf); err != nil {
			return nil, err
		}
		st.expectQ = append(st.expectQ, buf.Bytes())
	}

	// Warm the server as a long-running one would be: every registered
	// trace analyzed once and every query answered once.
	err = b.step("serve.warm", func() error {
		ctx := context.Background()
		for _, id := range st.fleetIDs {
			if _, err := st.reader.Analyze(ctx, id, serve.AnalyzeRequest{}); err != nil {
				return err
			}
		}
		for _, q := range st.queries {
			if _, err := st.reader.Query(ctx, q); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The shared share, measured from the server's own listing: the
	// registered ids whose content digest another id also has.
	listed, err := st.reader.Traces(context.Background())
	if err != nil {
		return nil, err
	}
	byDigest := map[string]int{}
	for _, ti := range listed {
		byDigest[ti.Digest]++
	}
	shared := 0
	for _, ti := range listed {
		if byDigest[ti.Digest] > 1 {
			shared++
		}
	}
	var fleetEvents, liveEvents, liveFrames int
	for _, t := range fleetTraces {
		fleetEvents += len(t.Events)
	}
	for _, l := range st.live {
		liveEvents += l.events
		liveFrames += len(l.frames)
	}
	dirs := make([]string, 0, len(st.distinct))
	for _, id := range st.distinct {
		dirs = append(dirs, st.fleetDirs[id])
	}
	atRest, err := dirBytes(dirs...)
	if err != nil {
		return nil, err
	}
	chunks, err := chunkCount(dirs...)
	if err != nil {
		return nil, err
	}
	procs := 0
	for _, t := range fleetTraces {
		procs += len(t.Meta.Procs)
	}
	b.inputs["fleet_runs"] = len(st.distinct)
	b.inputs["fleet_registered"] = len(st.fleetIDs)
	b.inputs["shared_content_share"] = float64(shared) / float64(len(st.fleetIDs))
	b.inputs["events"] = fleetEvents
	b.inputs["chunks"] = chunks
	b.inputs["procs"] = procs
	b.inputs["bytes_at_rest"] = atRest
	b.inputs["capacity_events"] = len(st.capacity.Events)
	b.inputs["live_runs"] = len(st.live)
	b.inputs["live_events"] = liveEvents
	b.inputs["live_frames"] = liveFrames
	ok = true
	return st, nil
}

// countingSink counts the chunks its sink acknowledged.
type countingSink struct {
	trace.Sink
	acked int
}

func (c *countingSink) AppendChunk(seq int, chunk []byte, index *trace.ChunkIndex) error {
	err := c.Sink.AppendChunk(seq, chunk, index)
	if err == nil {
		c.acked++
	}
	return err
}

// sealed is one live trace the writer finished.
type sealed struct {
	id     string
	run    int // index into serveState.live
	digest string
}

func measureServe(b *bench, s state) error {
	st := s.(*serveState)
	ctx := context.Background()
	runsBefore := st.srv.EngineRuns()

	// Capacity: one stream at a time through client.Sink, each append
	// sent when the previous one is acknowledged.
	var capEvents int
	var capSealed []string
	capSink := &countingSink{}
	capStart := time.Now()
	for i := 0; i == 0 || time.Since(capStart).Seconds() < b.cfg.seconds*capacityShare; i++ {
		id := fmt.Sprintf("cap-%03d", i)
		o := b.beginOp(1, "op.stream")
		c0 := cpuTime()
		sp := o.span("client.stream")
		capSink.Sink = st.writer.Sink(ctx, id)
		w := trace.NewSinkWriter(capSink, liveChunkBytes, trace.WithFormat(trace.FormatV2))
		w.Append(st.capacity.Events...)
		err := w.Close(st.capacity.Meta)
		sp.end()
		b.recordCPU("op_cpu_ms", o.traced, c0)
		o.end()
		if err != nil {
			b.fail("capacity stream %s: %v", id, err)
			continue
		}
		capEvents += len(st.capacity.Events)
		capSealed = append(capSealed, id)
	}
	capSecs := time.Since(capStart).Seconds()
	b.detail["ingest_events_per_s"] = metric{float64(capEvents) / capSecs, "1/s"}
	b.counts["ingest_events_per_s"] = len(capSealed)
	// The same capacity in the open loop's unit: offeredChunksPerSec is
	// set against it.
	b.detail["ingest_chunks_per_s"] = metric{float64(capSink.acked) / capSecs, "1/s"}

	// Mixed phase: the open-loop writer beside the closed-loop reader.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var (
		mu       sync.Mutex
		openID   string
		done     []sealed
		lags     []float64
		sent     int
		runsPerQ []float64
	)
	mixStart := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		interval := time.Second / offeredChunksPerSec
		k := 0
		for n := 0; ; n++ {
			run := n % len(st.live)
			lr := st.live[run]
			id := fmt.Sprintf("live-%04d", n)
			for _, f := range lr.frames {
				due := mixStart.Add(time.Duration(k) * interval)
				k++
				if wait := time.Until(due); wait > 0 {
					select {
					case <-stop:
						return
					case <-time.After(wait):
					}
				} else {
					select {
					case <-stop:
						return
					default:
					}
				}
				o := b.beginOp(1, "op.append")
				lag := float64(time.Since(due)) / float64(time.Millisecond)
				sp := o.span("client.append")
				_, err := st.writer.AppendChunk(ctx, id, f.seq, f.chunk, f.index)
				sp.end()
				o.done("append_ms", due)
				mu.Lock()
				lags = append(lags, lag)
				sent++
				if err == nil {
					// The first acknowledged chunk creates the trace; from
					// then on the reader analyzes it.
					openID = id
				}
				mu.Unlock()
				if err != nil {
					b.fail("append %s seq %d: %v", id, f.seq, err)
				}
			}
			o := b.beginOp(1, "op.seal")
			sp := o.span("client.seal")
			resp, err := st.writer.Seal(ctx, id, lr.meta)
			sp.end()
			o.end()
			if err != nil {
				b.fail("seal %s: %v", id, err)
				continue
			}
			mu.Lock()
			done = append(done, sealed{id: id, run: run, digest: resp.Digest})
			mu.Unlock()
		}
	}()
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(b.cfg.seed))
		verified := map[string]bool{}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(readerThink):
			}
			// The mix: 20% live analyze, 30% fleet query, 50% registered
			// analyze. Live analyzes re-sweep the open trace, so a larger
			// share makes the collector's timing, not the request, decide
			// the registered-analyze latencies.
			switch r := rng.Float64(); {
			case r < 0.2:
				mu.Lock()
				id := openID
				mu.Unlock()
				if id == "" {
					continue
				}
				o := b.beginOp(2, "op.live_analyze")
				t0 := time.Now()
				sp := o.span("client.live_analyze")
				_, err := st.reader.Analyze(ctx, id, serve.AnalyzeRequest{})
				sp.end()
				o.done("live_analyze_ms", t0)
				if err != nil {
					b.fail("live analyze %s: %v", id, err)
				}
			case r < 0.5:
				qi := i % len(st.queries)
				o := b.beginOp(2, "op.query")
				t0 := time.Now()
				sp := o.span("client.query")
				body, runs, err := postQuery(ctx, st.readerHC, st.hts.URL, st.queries[qi])
				sp.end()
				o.done("query_ms", t0)
				mu.Lock()
				runsPerQ = append(runsPerQ, float64(runs))
				mu.Unlock()
				if err != nil {
					b.fail("query: %v", err)
				} else if !bytes.Equal(body, st.expectQ[qi]) {
					b.fail("query %d document differs from the offline fleet execution", qi)
				}
			default:
				id := st.fleetIDs[rng.Intn(len(st.fleetIDs))]
				o := b.beginOp(2, "op.analyze")
				t0 := time.Now()
				sp := o.span("client.analyze")
				body, err := st.reader.Analyze(ctx, id, serve.AnalyzeRequest{})
				sp.end()
				o.done("analyze_ms", t0)
				if err != nil {
					b.fail("analyze %s: %v", id, err)
					continue
				}
				key := id + "\x00" + string(body)
				if verified[key] {
					continue
				}
				if err := sameResult(body, st.expectDoc[id]); err != nil {
					b.fail("analyze %s: %v", id, err)
					continue
				}
				verified[key] = true
			}
		}
	}()
	for !b.phaseOver(mixStart, 1-capacityShare, "append_ms", "live_analyze_ms", "query_ms", "analyze_ms") {
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	mixSecs := time.Since(mixStart).Seconds()
	b.stopMeasure()

	b.detail["bench.offered_chunks_per_s"] = metric{offeredChunksPerSec, "1/s"}
	b.detail["bench.achieved_chunks_per_s"] = metric{float64(sent) / mixSecs, "1/s"}
	b.detail["bench.generator_lag_ms_p90"] = metric{quantile(lags, 0.9), "ms"}
	b.counts["bench.generator_lag_ms_p90"] = len(lags)
	b.detail["fleet.engine_runs_per_query"] = metric{mean(runsPerQ), "count"}
	b.detail["serve.engine_runs"] = metric{float64(st.srv.EngineRuns() - runsBefore), "count"}
	if err := b.healthRatios(ctx, st); err != nil {
		return err
	}
	if len(done) > 0 {
		if inc, ok := st.srv.IncrementalStats(done[len(done)-1].id); ok {
			b.detail["serve.incremental_shards_per_epoch"] = metric{float64(inc.Shards) / float64(max(inc.Epochs, 1)), "count"}
			b.detail["serve.repartitions"] = metric{float64(inc.Repartitions), "count"}
		}
	}

	// Untimed oracles over every sealed live trace: the sealed digest is
	// the stored directory's, and the post-seal live analysis equals the
	// result-only document of an offline analysis of that directory.
	expectLive := map[int][]byte{}
	for _, sd := range done {
		dir := filepath.Join(st.storeDir, sd.id)
		d, err := trace.DirDigest(dir)
		b.check(err == nil && d == sd.digest, "sealed %s: digest %s, stored dir %s (err %v)", sd.id, sd.digest, d, err)
		if expectLive[sd.run] == nil {
			rep, err := rlscope.NewEngine(rlscope.WithWorkers(engineWorkers)).Analyze(ctx, rlscope.FromDir(dir))
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			if err := report.NewResultAnalysis(rep.Meta, rep.Results, false).Encode(&buf); err != nil {
				return err
			}
			expectLive[sd.run] = buf.Bytes()
		}
		body, err := st.reader.Analyze(ctx, sd.id, serve.AnalyzeRequest{})
		b.check(err == nil && bytes.Equal(body, expectLive[sd.run]), "sealed %s: live analysis differs from the offline analysis of its directory (err %v)", sd.id, err)
	}
	for _, id := range capSealed {
		b.check(checkSealed(ctx, st, id) == nil, "capacity stream %s: %v", id, checkSealed(ctx, st, id))
	}
	return nil
}

// checkSealed compares a sealed trace's server digest with its directory.
func checkSealed(ctx context.Context, st *serveState, id string) error {
	d, err := trace.DirDigest(filepath.Join(st.storeDir, id))
	if err != nil {
		return err
	}
	traces, err := st.reader.Traces(ctx)
	if err != nil {
		return err
	}
	for _, ti := range traces {
		if ti.ID == id {
			if ti.Digest != d || ti.State != serve.StateSealed {
				return fmt.Errorf("server digest %s (%s), directory %s", ti.Digest, ti.State, d)
			}
			return nil
		}
	}
	return fmt.Errorf("not listed by the server")
}

// sameResult compares a served analysis document with the expected
// result-only document, ignoring the run-descriptive Stats block.
func sameResult(body, want []byte) error {
	var doc report.Analysis
	if err := json.Unmarshal(body, &doc); err != nil {
		return err
	}
	got, err := resultOnly(&doc)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("document differs from the offline analysis")
	}
	return nil
}

// postQuery sends one fleet query and returns the document and the
// server's X-RLScope-Engine-Runs header.
func postQuery(ctx context.Context, hc *http.Client, base string, q fleet.Query) ([]byte, int, error) {
	data, err := json.Marshal(q)
	if err != nil {
		return nil, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/query", bytes.NewReader(data))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("http %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	runs, _ := strconv.Atoi(resp.Header.Get("X-RLScope-Engine-Runs"))
	return body, runs, nil
}

// healthRatios records the report cache's and store's hit ratios, with
// their bases, from /healthz.
func (b *bench) healthRatios(ctx context.Context, st *serveState) error {
	h, err := st.reader.Health(ctx)
	if err != nil {
		return err
	}
	for _, tier := range []string{"cache", "store"} {
		m, _ := h[tier].(map[string]any)
		hits, _ := m["hits"].(float64)
		misses, _ := m["misses"].(float64)
		lookups := hits + misses
		ratio := 0.0
		if lookups > 0 {
			ratio = hits / lookups
		}
		b.detail["serve."+tier+"_hit_ratio"] = metric{ratio, "ratio"}
		b.detail["serve."+tier+"_lookups"] = metric{lookups, "count"}
	}
	return nil
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

func serveEngine(workers int, _ *calib.Calibration) *rlscope.Engine {
	return rlscope.NewEngine(rlscope.WithWorkers(workers))
}

func probeServe(b *bench, s state) error {
	st := s.(*serveState)
	dirs := make([]string, 0, len(st.distinct))
	for _, id := range st.distinct {
		dirs = append(dirs, st.fleetDirs[id])
	}
	streamed := []*trace.Trace{st.capacity}
	err := b.runProbes(probeInput{
		dirs:       dirs,
		hostDirs:   dirs[:1],
		streamed:   streamed,
		engineDirs: dirs,
		engine:     serveEngine,
		query:      st.queries[0],
	})
	if err != nil {
		return err
	}
	return b.probeHandlers(st)
}

// probeHandlers sends the workload's requests straight through the
// server's handler with a recorder — no socket — and derives the client's
// HTTP share of an append from the same frames sent over the connection.
func (b *bench) probeHandlers(st *serveState) error {
	b.traceThis = true
	defer func() { b.traceThis = false }()
	h := st.srv.Handler()
	serveReq := func(method, path string, body []byte) (time.Duration, error) {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(start)
		if rec.Code != http.StatusOK {
			return d, fmt.Errorf("%s %s: http %d: %s", method, path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		return d, nil
	}
	lr := st.live[0]
	var appendMS, liveMS, clientMS []float64
	sp := b.span(spanRef{}, "probe.serve.handlers")
	for i, f := range lr.frames {
		d, err := serveReq(http.MethodPost, fmt.Sprintf("/v1/traces/probe-handler/chunks?seq=%d", i), f.chunk)
		if err != nil {
			return err
		}
		appendMS = append(appendMS, float64(d)/float64(time.Millisecond))
		if d, err = serveReq(http.MethodPost, "/v1/traces/probe-handler/analyze", nil); err != nil {
			return err
		}
		liveMS = append(liveMS, float64(d)/float64(time.Millisecond))
	}
	var queryMS []float64
	q, err := json.Marshal(st.queries[0])
	if err != nil {
		return err
	}
	for i := 0; i < 20; i++ {
		d, err := serveReq(http.MethodPost, "/v1/query", q)
		if err != nil {
			return err
		}
		queryMS = append(queryMS, float64(d)/float64(time.Millisecond))
	}
	ctx := context.Background()
	for i, f := range lr.frames {
		start := time.Now()
		if _, err := st.writer.AppendChunk(ctx, "probe-client", i, f.chunk, nil); err != nil {
			return err
		}
		clientMS = append(clientMS, float64(time.Since(start))/float64(time.Millisecond))
	}
	sp.end()
	b.detail["serve.handler_append_ms"] = metric{median(appendMS), "ms"}
	b.detail["serve.handler_live_analyze_ms"] = metric{median(liveMS), "ms"}
	b.detail["serve.handler_query_ms"] = metric{median(queryMS), "ms"}
	b.detail["client.http_ms"] = metric{median(clientMS) - median(appendMS), "ms"}
	return nil
}
