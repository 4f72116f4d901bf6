package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// gitRevision is set at build time (run.sh passes -ldflags -X).
var gitRevision = "unknown"

// provenance stamps a run with what its numbers depend on.
type provenance struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Ops         int     `json:"ops"`
	Trace       bool    `json:"trace"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"nproc"`
	CPUModel    string  `json:"cpu_model"`
	GoVersion   string  `json:"go_version"`
	GitRevision string  `json:"git_revision"`
	StoreDir    string  `json:"store_dir"`
	StoreFS     string  `json:"store_fs"`
}

func stamp(workload string, r *run, seconds float64) provenance {
	return provenance{
		Workload:    workload,
		Seed:        r.seed,
		Seconds:     seconds,
		Ops:         r.ops,
		Trace:       r.trace,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		CPUModel:    cpuModel(),
		GoVersion:   runtime.Version(),
		GitRevision: gitRevision,
		StoreDir:    r.workdir,
		StoreFS:     fsType(r.workdir),
	}
}

// cpuModel is the first "model name" of /proc/cpuinfo.
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

// fsType names the filesystem holding dir, whose fsync cost the durable
// server pays on every cold result and job.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return "unknown"
}
