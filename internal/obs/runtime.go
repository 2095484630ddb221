package obs

import (
	"runtime"
	"runtime/debug"
	"time"
)

// BuildInfo is the process's identity block: module version, Go
// toolchain, and GOMAXPROCS — the /v1/stats server section and the
// swim_build_info metric.
type BuildInfo struct {
	Version    string `json:"version"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// ReadBuildInfo resolves the build identity once; the module version is
// "(devel)" for plain `go build` trees and a semantic version for
// module-built binaries.
func ReadBuildInfo() BuildInfo {
	bi := BuildInfo{
		Version:    "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if info, ok := debug.ReadBuildInfo(); ok && info.Main.Version != "" {
		bi.Version = info.Main.Version
	}
	return bi
}

// RuntimeStats is a point-in-time snapshot of the Go runtime: the
// /v1/stats runtime section.
type RuntimeStats struct {
	Goroutines          int     `json:"goroutines"`
	HeapAllocBytes      uint64  `json:"heap_alloc_bytes"`
	HeapSysBytes        uint64  `json:"heap_sys_bytes"`
	NumGC               uint32  `json:"num_gc"`
	GCPauseTotalSeconds float64 `json:"gc_pause_total_seconds"`
	LastGCPauseSeconds  float64 `json:"last_gc_pause_seconds"`
}

// ReadRuntimeStats snapshots the runtime counters. ReadMemStats
// stops-the-world briefly; callers are scrape-rate, not request-rate.
func ReadRuntimeStats() RuntimeStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	rs := RuntimeStats{
		Goroutines:          runtime.NumGoroutine(),
		HeapAllocBytes:      m.HeapAlloc,
		HeapSysBytes:        m.HeapSys,
		NumGC:               m.NumGC,
		GCPauseTotalSeconds: float64(m.PauseTotalNs) / 1e9,
	}
	if m.NumGC > 0 {
		rs.LastGCPauseSeconds = float64(m.PauseNs[(m.NumGC+255)%256]) / 1e9
	}
	return rs
}

// RegisterRuntime wires the build-info, uptime and goroutine series
// into a registry. started anchors the uptime gauge. The rest of the
// runtime snapshot is read from /v1/stats, not scraped.
func RegisterRuntime(r *Registry, started time.Time) {
	bi := ReadBuildInfo()
	r.RegisterFunc("swim_build_info", "Build identity; value is always 1.", KindGauge, func() []Sample {
		return []Sample{{Labels: L("version", bi.Version, "go", bi.GoVersion), Value: 1}}
	})
	r.RegisterFunc("swim_uptime_seconds", "Seconds since the process started serving.", KindGauge, func() []Sample {
		return []Sample{{Value: time.Since(started).Seconds()}}
	})
	r.RegisterFunc("go_goroutines", "Current goroutine count.", KindGauge, func() []Sample {
		return []Sample{{Value: float64(runtime.NumGoroutine())}}
	})
}
