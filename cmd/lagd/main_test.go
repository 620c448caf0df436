package main

import (
	"context"
	"fmt"
	"testing"
	"time"

	"lagalyzer/internal/report"
	"lagalyzer/internal/serve"
)

// TestRetriesFlag: -retries 0 runs a transient failure once, and any
// other value passes through; serve.Config's zero value stays its
// default of two retries.
func TestRetriesFlag(t *testing.T) {
	for flag, want := range map[int]int{0: 1, 1: 2, 3: 4} {
		s, err := serve.New(serve.Config{
			Workers:    1,
			MaxRetries: maxRetries(flag),
			RetryBase:  time.Millisecond,
			Runner: func(context.Context, serve.JobSpec) (*report.StudyResult, error) {
				return nil, fmt.Errorf("flaky backend: %w", serve.ErrTransient)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		job, err := s.Submit(serve.JobSpec{Kind: "study"})
		if err != nil {
			t.Fatal(err)
		}
		var st serve.Status
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
			if st, _ = s.Status(job.ID); st.State == serve.StateFailed {
				break
			}
		}
		s.Shutdown(context.Background())
		if st.State != serve.StateFailed || st.Attempts != want {
			t.Errorf("-retries %d: status %+v, want failed after %d attempts", flag, st, want)
		}
	}
}
