package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"lagalyzer/internal/serve"
)

// The shard client: one remote attempt is submit → poll → fetch
// state, bounded by Options.AttemptTimeout. Around it sit the three
// resilience layers, innermost first:
//
//   - hedging: a straggling attempt races a second attempt on a
//     different worker (attemptHedged);
//   - retry: failed attempts are re-submitted to the next healthy
//     worker after serve.Backoff — capped at 2s, honoring any server
//     Retry-After hint — when serve.Retryable accepts them (runShard);
//   - ejection: consecutive failures eject a worker from the pool
//     until a /healthz probe re-admits it (workerPool).
//
// The coordinator owns every attempt of a shard (lagd runs a shard job
// once), and attemptOnce maps the wire onto serve.Retryable: every
// transport-shaped failure — refused connection, reset, 5xx, shed,
// draining, a job lost to a worker restart (404 while polling), damaged
// shard state, a stall past the attempt deadline, a retryable failure
// on the worker — is serve.ErrTransient. Only the coordinator's context
// ending and errPermanent are permanent; those degrade at once.

// errDraining marks a worker that answered 503: it is shutting down
// and must not receive further shards.
var errDraining = errors.New("dist: worker draining")

// errPermanent marks a shard no worker can run: a submission refused
// as a bad job spec (400), or a job that failed with Status.Permanent.
var errPermanent = errors.New("dist: shard fails permanently")

// backoffMax caps the delay between a shard's attempts.
const backoffMax = 2 * time.Second

// retryAfterError carries a server's Retry-After hint (a shed 429)
// into the backoff computation.
type retryAfterError struct {
	hint time.Duration
	err  error
}

func (e *retryAfterError) Error() string { return e.err.Error() }
func (e *retryAfterError) Unwrap() error { return e.err }

// hintOf extracts a Retry-After hint from err (0 when absent).
func hintOf(err error) time.Duration {
	var ra *retryAfterError
	if errors.As(err, &ra) {
		return ra.hint
	}
	return 0
}

// runShard runs one shard to completion against the pool, its
// attempts rotating over the workers from home (see pick): hedged
// attempts, serve.Backoff between them, ejection bookkeeping. It
// returns the decoded state, or the attempt count and last error once
// the budget is exhausted or an attempt failed permanently.
func (c *Coordinator) runShard(ctx context.Context, label string, home int, spec serve.JobSpec) (*serve.ShardState, int, error) {
	mShards.Add(1)
	c.bump(&c.stats.Shards)

	lastErr := errAllEjected
	maxAttempts := c.opt.maxAttempts()
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		w, hedge := c.pool.pick(home, attempt)
		if w == nil {
			lastErr = fmt.Errorf("dist: no healthy workers (of %d): %w",
				len(c.opt.Workers), lastErr)
			break
		}
		st, err := c.attemptHedged(ctx, label, spec, w, hedge)
		if err == nil {
			return st, attempt, nil
		}
		lastErr = err
		if !serve.Retryable(err) {
			return nil, attempt, err
		}
		if attempt == maxAttempts {
			break
		}
		mRetries.Add(1)
		c.bump(&c.stats.Retries)
		delay := serve.Backoff(c.opt.backoffBase(), attempt, label, hintOf(err), backoffMax)
		c.log.Info("dist: shard retry", "shard", label, "attempt", attempt,
			"delay", delay.String(), "err", err)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, attempt, ctx.Err()
		}
	}
	if ctx.Err() != nil {
		return nil, maxAttempts, ctx.Err()
	}
	return nil, maxAttempts, fmt.Errorf("dist: shard %s exhausted %d attempts: %w",
		label, maxAttempts, lastErr)
}

var errAllEjected = errors.New("all workers ejected")

// attemptHedged runs one attempt on primary; if it has not finished
// within Options.HedgeAfter and a second healthy worker exists, a
// hedge attempt races it, first success wins, and the loser is
// canceled. Both outcomes feed the pool's health bookkeeping.
func (c *Coordinator) attemptHedged(ctx context.Context, label string, spec serve.JobSpec, primary, hedge *worker) (*serve.ShardState, error) {
	if c.opt.HedgeAfter <= 0 || hedge == nil {
		st, err := c.attemptOnce(ctx, spec, primary)
		c.pool.record(primary, err)
		return st, err
	}

	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		st     *serve.ShardState
		err    error
		w      *worker
		hedged bool
	}
	results := make(chan outcome, 2)
	launch := func(w *worker, hedged bool) {
		st, err := c.attemptOnce(actx, spec, w)
		results <- outcome{st, err, w, hedged}
	}
	go launch(primary, false)

	timer := time.NewTimer(c.opt.HedgeAfter)
	defer timer.Stop()
	inFlight := 1
	for {
		select {
		case <-timer.C:
			// The primary is straggling: race a second attempt. The
			// primary keeps running — whichever finishes first wins.
			mHedges.Add(1)
			c.bump(&c.stats.Hedges)
			c.log.Info("dist: hedging straggler", "shard", label,
				"primary", primary.url, "hedge", hedge.url)
			inFlight++
			go launch(hedge, true)
		case out := <-results:
			if out.err == nil {
				c.pool.record(out.w, nil)
				if out.hedged {
					c.bump(&c.stats.HedgeWins)
				}
				cancel() // release the loser
				return out.st, nil
			}
			// Don't punish the canceled loser of a decided race; a
			// genuine failure counts against its worker.
			if actx.Err() == nil || ctx.Err() != nil {
				c.pool.record(out.w, out.err)
			}
			inFlight--
			if inFlight == 0 {
				// Both racers failed (or the primary failed before the
				// hedge delay): surface the last error to the retry
				// layer, which owns backoff and worker rotation.
				return nil, out.err
			}
			// One racer failed while the other is still running: the
			// survivor decides the outcome.
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// attemptOnce is one complete remote attempt against worker w:
// submit the shard job, poll it to a terminal state, fetch and decode
// the partial state. The whole attempt shares one deadline. A failure
// is marked serve.ErrTransient unless ctx ended or it is errPermanent.
func (c *Coordinator) attemptOnce(ctx context.Context, spec serve.JobSpec, w *worker) (*serve.ShardState, error) {
	actx, cancel := context.WithTimeout(ctx, c.opt.attemptTimeout())
	defer cancel()

	id, err := c.submit(actx, w, spec)
	if err == nil {
		err = c.await(actx, w, id)
	}
	var st *serve.ShardState
	if err == nil {
		st, err = c.fetchState(actx, w, id)
	}
	switch {
	case err == nil, ctx.Err() != nil, errors.Is(err, errPermanent):
		return st, err
	case actx.Err() != nil:
		// Past the attempt deadline: the context error is flattened,
		// not wrapped, because Retryable calls it permanent.
		return nil, fmt.Errorf("%w: attempt on %s ran past %s: %v",
			serve.ErrTransient, w.url, c.opt.attemptTimeout(), err)
	}
	return nil, fmt.Errorf("%w: %w", serve.ErrTransient, err)
}

// submit POSTs the job spec, mapping the server's back-pressure
// answers onto the retry layer's vocabulary.
func (c *Coordinator) submit(ctx context.Context, w *worker, spec serve.JobSpec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", fmt.Errorf("dist: encoding job spec: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, "POST", w.url+"/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", fmt.Errorf("dist: submit to %s: %w", w.url, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted:
	case http.StatusTooManyRequests:
		// Shed: respect the server's Retry-After hint through the
		// unified backoff (capped there against the retry budget).
		hint := time.Duration(0)
		if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
			hint = time.Duration(s) * time.Second
		}
		return "", &retryAfterError{hint: hint,
			err: fmt.Errorf("dist: %s shed the job: %s", w.url, readError(resp.Body))}
	case http.StatusServiceUnavailable:
		return "", fmt.Errorf("%w: %s: %s", errDraining, w.url, readError(resp.Body))
	case http.StatusBadRequest:
		return "", fmt.Errorf("%w: %s refused the job spec: %s", errPermanent, w.url, readError(resp.Body))
	default:
		return "", fmt.Errorf("dist: submit to %s: %s: %s", w.url, resp.Status, readError(resp.Body))
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.ID == "" {
		return "", fmt.Errorf("dist: submit to %s: undecodable accept body: %v", w.url, err)
	}
	return out.ID, nil
}

// await polls the job until it reaches a terminal state.
func (c *Coordinator) await(ctx context.Context, w *worker, id string) error {
	tick := time.NewTicker(c.opt.pollInterval())
	defer tick.Stop()
	for {
		st, err := c.status(ctx, w, id)
		if err != nil {
			return err
		}
		switch st.State {
		case serve.StateDone:
			return nil
		case serve.StateFailed:
			if st.Permanent {
				return fmt.Errorf("%w: job %s on %s: %s", errPermanent, id, w.url, st.Error)
			}
			return fmt.Errorf("dist: shard job %s failed on %s: %s", id, w.url, st.Error)
		case serve.StateCheckpointed:
			// The worker parked the job for its own restart; this
			// attempt will never finish here.
			return fmt.Errorf("dist: shard job %s checkpointed on draining %s", id, w.url)
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func (c *Coordinator) status(ctx context.Context, w *worker, id string) (*serve.Status, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", w.url+"/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("dist: polling %s on %s: %w", id, w.url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("dist: polling %s on %s: %s", id, w.url, resp.Status)
	}
	var st serve.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("dist: polling %s on %s: %w", id, w.url, err)
	}
	return &st, nil
}

// fetchState retrieves and verifies the shard's partial state. Any
// wire damage — truncation, reset, bit flips — fails the checksum
// framing (serve.ErrBadShardState) and is retried like any transport
// error, never merged.
func (c *Coordinator) fetchState(ctx context.Context, w *worker, id string) (*serve.ShardState, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", w.url+"/jobs/"+id+"/state", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("dist: fetching state of %s from %s: %w", id, w.url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("dist: fetching state of %s from %s: %s: %s",
			id, w.url, resp.Status, readError(resp.Body))
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("dist: reading state of %s from %s: %w", id, w.url, err)
	}
	st, err := serve.DecodeShardState(data)
	if err != nil {
		return nil, fmt.Errorf("dist: state of %s from %s: %w", id, w.url, err)
	}
	return st, nil
}

// readError drains up to a line of an error response body for
// messages.
func readError(r io.Reader) string {
	data, _ := io.ReadAll(io.LimitReader(r, 256))
	return string(bytes.TrimSpace(data))
}
