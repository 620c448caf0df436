package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"time"

	"lagalyzer/internal/treebuild"
)

// Error markers for retry classification.
var (
	// ErrWorkerPanic wraps a panic recovered inside a job attempt. It
	// is retryable: panics in this codebase have historically come from
	// data races and transient corruption, and the engine's per-app
	// containment means a retry runs from clean state.
	ErrWorkerPanic = errors.New("serve: worker panic")
	// ErrTransient marks an error as retryable by construction; wrap
	// with fmt.Errorf("...: %w", ErrTransient) in runners whose
	// failures are known to be momentary.
	ErrTransient = errors.New("serve: transient failure")
)

// Retryable classifies a failed attempt, of a lagd job or a dist
// shard, following the health-ledger taxonomy: damage that is a
// deterministic function of the input (too-large sessions, missing or
// unreadable files, canceled or expired contexts) will fail the same
// way every time, so retrying only burns queue time. What remains —
// contained panics, explicitly transient markers, and errors
// advertising net.Error-style Temporary() — gets another attempt.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	// Permanent classes first: context outcomes are the job's deadline
	// or the server's shutdown; resource-guard and filesystem errors
	// are properties of the input.
	switch {
	case errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, treebuild.ErrSessionTooLarge),
		errors.Is(err, fs.ErrNotExist),
		errors.Is(err, fs.ErrPermission):
		return false
	}
	if errors.Is(err, ErrWorkerPanic) || errors.Is(err, ErrTransient) {
		return true
	}
	var temp interface{ Temporary() bool }
	if errors.As(err, &temp) {
		return temp.Temporary()
	}
	return false
}

// Backoff is the delay before retry number attempt (1-based) of a lagd
// job (100ms base, 30s limit) or a dist shard (25ms, 2s): doubling from
// base, raised to any server Retry-After hint, jittered
// deterministically from (key, attempt) so reruns reproduce the exact
// schedule, and always capped at limit — a server cannot stretch a
// retry budget by hinting a huge Retry-After.
func Backoff(base time.Duration, attempt int, key string, hint, limit time.Duration) time.Duration {
	d := base
	for i := 1; i < attempt && d < limit; i++ {
		d *= 2
	}
	d = min(max(d, hint), limit)
	// Deterministic jitter in [0.75, 1.25): the same (key, attempt)
	// always waits the same amount, but distinct keys desynchronize
	// instead of thundering back together.
	h := fnv.New64a()
	io.WriteString(h, key)
	fmt.Fprintf(h, "/%d", attempt)
	frac := float64(h.Sum64()%1000) / 1000
	return min(time.Duration(float64(d)*(0.75+0.5*frac)), limit)
}
