package serve

import (
	"context"
	"errors"
	"io/fs"

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

// Retryable classifies a job-attempt error for the retry loop,
// following the PR 3 health-ledger taxonomy: damage that is a
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
