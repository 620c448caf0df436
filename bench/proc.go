package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one finished CLI invocation, timed from process start to exit.
type proc struct {
	wall   time.Duration
	cpu    time.Duration // user + system, from rusage
	rssMB  float64       // max resident set size, from rusage
	stdout []byte
}

// tail keeps the last bytes written to it, for error messages.
type tail struct {
	mu  sync.Mutex
	buf []byte
}

const tailSize = 4096

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailSize {
		t.buf = append([]byte(nil), t.buf[len(t.buf)-tailSize:]...)
	}
	t.mu.Unlock()
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(string(t.buf))
}

// usage extracts CPU time and peak RSS from a finished process.
func usage(st *os.ProcessState) (cpu time.Duration, rssMB float64) {
	cpu = st.UserTime() + st.SystemTime()
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return cpu, rssMB
}

// runProgram runs a program to completion and fails on a non-zero exit.
// Pdeathsig kills it should the benchmark itself die first (the
// benchmark never locks goroutines to threads, so the parent thread
// outlives the child); the context kills it on expiry, and Run waits
// for it either way.
func runProgram(ctx context.Context, path string, args ...string) (proc, error) {
	cmd := exec.CommandContext(ctx, path, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out bytes.Buffer
	var errTail tail
	cmd.Stdout = &out
	cmd.Stderr = &errTail
	start := time.Now()
	err := cmd.Run()
	p := proc{wall: time.Since(start), stdout: out.Bytes()}
	if cmd.ProcessState != nil {
		p.cpu, p.rssMB = usage(cmd.ProcessState)
	}
	if err != nil {
		return p, fmt.Errorf("%s %s: %v: %s", filepath.Base(path), strings.Join(args, " "), err, errTail.String())
	}
	return p, nil
}

// runCLI runs one of the CLIs built into binDir.
func runCLI(ctx context.Context, binDir, name string, args ...string) (proc, error) {
	return runProgram(ctx, filepath.Join(binDir, name), args...)
}

// readJSON decodes a JSON file.
func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
