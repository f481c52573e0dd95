package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/backend"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// hostInfo is the host and input record printed beside every run's metrics.
type hostInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Seed       int64  `json:"seed,omitempty"`
}

func hostRecord(cfg config) hostInfo {
	return hostInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Seed:       cfg.seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// checkHost compares this host with the one the bounds in BENCHMARK.json
// were set on (perfbench/host.json) and warns when they differ. A
// different host never widens a bound.
func checkHost(root string, got hostInfo, out io.Writer) {
	data, err := os.ReadFile(filepath.Join(root, "perfbench", "host.json"))
	if err != nil {
		fmt.Fprintf(out, "WARNING: no recorded benchmark host (%v)\n", err)
		return
	}
	var want hostInfo
	if err := json.Unmarshal(data, &want); err != nil {
		fmt.Fprintf(out, "WARNING: unreadable perfbench/host.json: %v\n", err)
		return
	}
	var diffs []string
	if want.NumCPU != got.NumCPU {
		diffs = append(diffs, fmt.Sprintf("num_cpu %d, recorded %d", got.NumCPU, want.NumCPU))
	}
	if want.GOMAXPROCS != got.GOMAXPROCS {
		diffs = append(diffs, fmt.Sprintf("gomaxprocs %d, recorded %d", got.GOMAXPROCS, want.GOMAXPROCS))
	}
	if want.CPUModel != got.CPUModel {
		diffs = append(diffs, fmt.Sprintf("cpu %q, recorded %q", got.CPUModel, want.CPUModel))
	}
	if want.Arch != got.Arch {
		diffs = append(diffs, fmt.Sprintf("arch %s, recorded %s", got.Arch, want.Arch))
	}
	if len(diffs) > 0 {
		fmt.Fprintf(out, "WARNING: host differs from the recorded benchmark host (%s); bounds are unchanged, compare only runs from one host\n",
			strings.Join(diffs, "; "))
	}
}

// profile runs one seeded training workload under full instrumentation.
// Host is recorded so the trace is also valid multihost input.
func profile(spec workloads.Spec) (*trace.Trace, error) {
	st, err := workloads.Run(spec, trace.Full())
	if err != nil {
		return nil, fmt.Errorf("profiling %s: %w", spec.Name(), err)
	}
	st.Trace.Meta.Host = "bench"
	return st.Trace, nil
}

// writeDir writes a trace as a columnar (v2) chunked directory.
func writeDir(dir string, t *trace.Trace) error {
	w, err := trace.NewWriter(dir, 0, trace.WithFormat(trace.FormatV2))
	if err != nil {
		return err
	}
	w.Append(t.Events...)
	return w.Close(t.Meta)
}

// frame is one encoded chunk exactly as a live writer ships it.
type frame struct {
	seq   int
	chunk []byte
	index *trace.ChunkIndex
}

// frameSink captures a Writer's frames instead of delivering them.
type frameSink struct{ frames []frame }

func (s *frameSink) AppendChunk(seq int, chunk []byte, index *trace.ChunkIndex) error {
	s.frames = append(s.frames, frame{seq: seq, chunk: chunk, index: index})
	return nil
}

func (s *frameSink) Seal(trace.Meta) error { return nil }

// liveChunkBytes is the flush size of live writers: small chunks so
// dashboards watching an open trace see fresh data.
const liveChunkBytes = 64 << 10

// encodeFrames splits a trace into the frames a live writer flushes.
func encodeFrames(t *trace.Trace) ([]frame, error) {
	s := &frameSink{}
	w := trace.NewSinkWriter(s, liveChunkBytes, trace.WithFormat(trace.FormatV2))
	w.Append(t.Events...)
	if err := w.Close(t.Meta); err != nil {
		return nil, err
	}
	return s.frames, nil
}

// dirBytes sums the sizes of the regular files in dirs: the trace's bytes
// at rest, chunks, sidecars and metadata included.
func dirBytes(dirs ...string) (int64, error) {
	var total int64
	for _, d := range dirs {
		ents, err := os.ReadDir(d)
		if err != nil {
			return 0, err
		}
		for _, e := range ents {
			info, err := e.Info()
			if err != nil {
				return 0, err
			}
			if info.Mode().IsRegular() {
				total += info.Size()
			}
		}
	}
	return total, nil
}

func chunkCount(dirs ...string) (int, error) {
	n := 0
	for _, d := range dirs {
		r, err := trace.OpenDir(d)
		if err != nil {
			return 0, err
		}
		n += r.NumChunks()
	}
	return n, nil
}

// ddpg is the paper's DDPG/Walker2D graph-mode (stable-baselines) workload.
func ddpg(steps int, seed int64) workloads.Spec {
	return workloads.Spec{Algo: "DDPG", Env: "Walker2D", Model: backend.Graph, TotalSteps: steps, Seed: seed}
}
