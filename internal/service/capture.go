// SLO auto-capture: when an objective starts burning, the service
// snapshots the evidence an engineer would otherwise have to gather by
// hand while the incident is still live — a CPU profile, a heap
// profile, the flight-recorder ring, and the timeline window that
// tripped the objective — into a bundle directory under -debug-dir.
// GET /debug/captures lists the bundles; GET /debug/captures/{name}/{file}
// serves the artifacts. meta.json is written last, so its presence
// marks a complete bundle.
package service

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs/timeline"
)

// captureManager rate-limits and writes violation bundles.
type captureManager struct {
	dir         string
	cpuDur      time.Duration
	minInterval time.Duration
	svc         *Service

	taken atomic.Int64

	mu      sync.Mutex
	last    time.Time
	running bool
}

func newCaptureManager(s *Service, cfg Config) *captureManager {
	if cfg.DebugDir == "" {
		return nil
	}
	cpuDur := cfg.CaptureCPU
	if cpuDur <= 0 {
		cpuDur = 2 * time.Second
	}
	minInterval := cfg.CaptureMinInterval
	if minInterval <= 0 {
		minInterval = time.Minute
	}
	return &captureManager{dir: cfg.DebugDir, cpuDur: cpuDur, minInterval: minInterval, svc: s}
}

// onTransition is the SLO engine's hook: it logs the transition to log
// and, when auto-capture is on (cm non-nil), captures a burning
// objective. It runs on the sampling goroutine, so everything slow is
// handed to a capture goroutine; at most one capture runs at a time
// and captures are rate-limited so a flapping objective cannot fill
// the disk.
func (cm *captureManager) onTransition(log *slog.Logger, st timeline.ObjectiveStatus) {
	if !st.Burning {
		log.Info("slo recovered", "objective", st.Name, "since", st.Since)
		return
	}
	log.Warn("slo burning", "objective", st.Name, "since", st.Since, "windows", st.Windows)
	if cm == nil {
		return
	}
	s := cm.svc
	cm.mu.Lock()
	now := time.Now()
	if cm.running || (!cm.last.IsZero() && now.Sub(cm.last) < cm.minInterval) {
		cm.mu.Unlock()
		return
	}
	cm.running = true
	cm.last = now
	cm.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer func() {
			cm.mu.Lock()
			cm.running = false
			cm.mu.Unlock()
		}()
		if err := cm.capture(st, now); err != nil {
			s.log.Error("slo capture failed", "objective", st.Name, "error", err)
			return
		}
		cm.taken.Add(1)
	}()
}

// captureMeta is the bundle manifest, written last.
type captureMeta struct {
	Name      string                   `json:"name"`
	Objective timeline.ObjectiveStatus `json:"objective"`
	Burning   []string                 `json:"burning"`
	Start     time.Time                `json:"start"`
	WindowMS  int64                    `json:"window_ms"`
	Files     []string                 `json:"files"`
}

// capture writes one bundle: capture-<unixms>-<objective>/ with
// cpu.pprof, heap.pprof, flight.json, timeline.json, slo.json and
// finally meta.json.
func (cm *captureManager) capture(st timeline.ObjectiveStatus, now time.Time) error {
	s := cm.svc
	name := fmt.Sprintf("capture-%d-%s", now.UnixMilli(), st.Name)
	dir := filepath.Join(cm.dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	meta := captureMeta{Name: name, Objective: st, Burning: s.tl.SLO().Burning(), Start: now}

	// CPU profile first: it needs wall time to be useful, and the
	// violating load is most likely still running right now. Profiling
	// is process-wide exclusive — if another profiler is active, skip
	// the CPU profile rather than fail the bundle.
	cpuPath := filepath.Join(dir, "cpu.pprof")
	if f, err := os.Create(cpuPath); err == nil {
		if err := pprof.StartCPUProfile(f); err == nil {
			time.Sleep(cm.cpuDur)
			pprof.StopCPUProfile()
			meta.Files = append(meta.Files, "cpu.pprof")
		} else {
			s.log.Warn("cpu profile unavailable", "error", err)
			os.Remove(cpuPath)
		}
		f.Close()
	}

	if f, err := os.Create(filepath.Join(dir, "heap.pprof")); err == nil {
		if p := pprof.Lookup("heap"); p != nil && p.WriteTo(f, 0) == nil {
			meta.Files = append(meta.Files, "heap.pprof")
		}
		f.Close()
	}

	sums, total := s.flight.list()
	if writeJSONFile(filepath.Join(dir, "flight.json"), map[string]any{
		"total_recorded": total, "requests": sums,
	}) == nil {
		meta.Files = append(meta.Files, "flight.json")
	}

	// The offending timeline window: the longest objective window,
	// ending now, at full sample resolution up to 2048 points.
	window := s.tl.SLO().MaxWindow()
	meta.WindowMS = window.Milliseconds()
	series := s.tl.Query(nil, now.Add(-window), now, 2048)
	if writeJSONFile(filepath.Join(dir, "timeline.json"), &TimelineResponse{
		Now: now, IntervalMS: s.cfg.TimelineInterval.Milliseconds(),
		Samples: s.tl.Samples(), Series: series,
	}) == nil {
		meta.Files = append(meta.Files, "timeline.json")
	}

	if writeJSONFile(filepath.Join(dir, "slo.json"), s.tl.SLO().Status()) == nil {
		meta.Files = append(meta.Files, "slo.json")
	}

	if err := writeJSONFile(filepath.Join(dir, "meta.json"), &meta); err != nil {
		return err
	}
	s.log.Warn("slo capture written", "objective", st.Name, "dir", dir, "files", len(meta.Files))
	return nil
}

func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	werr := enc.Encode(v)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// captureNameRe matches bundle directory names; it doubles as the
// path-traversal guard for /debug/captures/{name}/{file}.
var captureNameRe = regexp.MustCompile(`^capture-\d+-[a-zA-Z0-9._-]+$`)
var captureFileRe = regexp.MustCompile(`^[a-zA-Z0-9._-]+$`)

// CaptureInfo is one bundle in GET /debug/captures.
type CaptureInfo struct {
	Name     string    `json:"name"`
	Complete bool      `json:"complete"`
	ModTime  time.Time `json:"mtime"`
	Files    []string  `json:"files"`
}

// handleCaptures lists capture bundles, newest first. A bundle is
// complete once its meta.json exists (it is written last).
func (s *Service) handleCaptures(w http.ResponseWriter, r *http.Request) {
	if s.captures == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "auto-capture disabled (start with -debug-dir)"})
		return
	}
	entries, err := os.ReadDir(s.captures.dir)
	if err != nil && !os.IsNotExist(err) {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	out := []CaptureInfo{}
	for _, e := range entries {
		if !e.IsDir() || !captureNameRe.MatchString(e.Name()) {
			continue
		}
		ci := CaptureInfo{Name: e.Name()}
		if fi, err := e.Info(); err == nil {
			ci.ModTime = fi.ModTime()
		}
		files, _ := os.ReadDir(filepath.Join(s.captures.dir, e.Name()))
		for _, f := range files {
			ci.Files = append(ci.Files, f.Name())
			if f.Name() == "meta.json" {
				ci.Complete = true
			}
		}
		out = append(out, ci)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name > out[j].Name })
	writeJSON(w, http.StatusOK, map[string]any{"captures": out})
}

// handleCaptureFile serves one artifact out of a bundle.
func (s *Service) handleCaptureFile(w http.ResponseWriter, r *http.Request) {
	if s.captures == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "auto-capture disabled (start with -debug-dir)"})
		return
	}
	name, file := r.PathValue("name"), r.PathValue("file")
	if !captureNameRe.MatchString(name) || !captureFileRe.MatchString(file) {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad capture path"})
		return
	}
	path := filepath.Join(s.captures.dir, name, file)
	if _, err := os.Stat(path); err != nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such capture artifact"})
		return
	}
	http.ServeFile(w, r, path)
}
