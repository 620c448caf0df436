package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// machine records the facts a results file needs to be interpreted.
// GOMAXPROCS is read, never set: the CLIs the benchmark starts inherit
// the same environment, so they run with the same value.
type machine struct {
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GOMAXPROCSEnv string  `json:"gomaxprocs_env"`
	CPUModel      string  `json:"cpu_model"`
	GoVersion     string  `json:"go_version"`
	Kernel        string  `json:"kernel"`
	GitSHA        string  `json:"git_sha"`
	GitDirty      bool    `json:"git_dirty"`
	FreeDiskMB    float64 `json:"free_disk_mb"`
}

// machineFacts reads the facts of this machine and of the checkout at
// dir.
func machineFacts(dir string) machine {
	m := machine{
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GOMAXPROCSEnv: os.Getenv("GOMAXPROCS"),
		CPUModel:      "unknown",
		GoVersion:     runtime.Version(),
		Kernel:        "unknown",
		GitSHA:        "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	// A checkout without git metadata (an exported tree) keeps
	// "unknown" rather than guessing; git does not look above it.
	git := func(args ...string) ([]byte, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(dir))
		return cmd.Output()
	}
	if out, err := git("rev-parse", "HEAD"); err == nil {
		m.GitSHA = strings.TrimSpace(string(out))
		if st, err := git("status", "--porcelain"); err == nil {
			m.GitDirty = len(strings.TrimSpace(string(st))) > 0
		}
	}
	var fs syscall.Statfs_t
	if syscall.Statfs(dir, &fs) == nil {
		m.FreeDiskMB = float64(fs.Bavail) * float64(fs.Bsize) / (1 << 20)
	}
	return m
}

// loadAvg reads the 1, 5, and 15 minute load averages.
func loadAvg() [3]float64 {
	var la [3]float64
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return la
	}
	for i, f := range strings.Fields(string(b)) {
		if i >= 3 {
			break
		}
		la[i], _ = strconv.ParseFloat(f, 64)
	}
	return la
}
