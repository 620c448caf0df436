package dist

import (
	"context"
	"errors"
	"hash/fnv"
	"net/http"
	"sync"
	"time"
)

// workerPool tracks worker health. A worker accumulates consecutive
// failures and is ejected at Options.EjectAfter (immediately when it
// reports draining); after Options.EjectCooldown the pool probes its
// /healthz and re-admits it on a 200. Ejection is an availability
// optimization only — correctness never depends on it, because every
// attempt outcome flows through the retry and degradation layers
// regardless of which worker served it.
type workerPool struct {
	ejectAfter int
	cooldown   time.Duration
	client     *http.Client
	onEject    func(url string, err error)

	mu      sync.Mutex
	workers []*worker
}

type worker struct {
	url       string
	fails     int
	ejected   bool
	ejectedAt time.Time
}

func newWorkerPool(opt Options, client *http.Client, onEject func(string, error)) *workerPool {
	p := &workerPool{
		ejectAfter: opt.EjectAfter,
		cooldown:   opt.EjectCooldown,
		client:     client,
		onEject:    onEject,
	}
	if p.ejectAfter <= 0 {
		p.ejectAfter = 3
	}
	if p.cooldown <= 0 {
		p.cooldown = time.Second
	}
	for _, url := range opt.Workers {
		p.workers = append(p.workers, &worker{url: url})
	}
	return p
}

// labelHome is a study shard's home: the hash of its label.
func labelHome(label string) int {
	h := fnv.New32a()
	h.Write([]byte(label))
	return int(h.Sum32())
}

// pick chooses the primary worker for a shard's attempt and a distinct
// hedge candidate, by deterministic rotation over the healthy set from
// the shard's home (a label hash, or a trace shard's index): the same
// shard and attempt always land on the same workers, so fault plans
// keyed by host reproduce exactly. Returns (nil, nil) when no worker
// is healthy even after re-admission probes.
func (p *workerPool) pick(home, attempt int) (primary, hedge *worker) {
	p.readmit()
	p.mu.Lock()
	defer p.mu.Unlock()
	var healthy []*worker
	for _, w := range p.workers {
		if !w.ejected {
			healthy = append(healthy, w)
		}
	}
	if len(healthy) == 0 {
		return nil, nil
	}
	start := (home + attempt - 1) % len(healthy)
	if start < 0 {
		start += len(healthy)
	}
	primary = healthy[start]
	if len(healthy) > 1 {
		hedge = healthy[(start+1)%len(healthy)]
	}
	return primary, hedge
}

// record feeds one attempt outcome into the health bookkeeping: a
// success clears the worker's strike count; a failure adds one, and a
// draining answer or the strike limit ejects it.
func (p *workerPool) record(w *worker, err error) {
	if w == nil {
		return
	}
	p.mu.Lock()
	if err == nil {
		w.fails = 0
		p.mu.Unlock()
		return
	}
	w.fails++
	eject := !w.ejected && (w.fails >= p.ejectAfter || errors.Is(err, errDraining))
	if eject {
		w.ejected = true
		w.ejectedAt = time.Now()
	}
	p.mu.Unlock()
	if eject && p.onEject != nil {
		p.onEject(w.url, err)
	}
}

// readmit probes every ejected worker whose cooldown has elapsed and
// restores the ones whose /healthz answers 200 (a draining or dead
// worker keeps failing the probe and stays out; its next probe waits
// a fresh cooldown).
func (p *workerPool) readmit() {
	p.mu.Lock()
	var due []*worker
	now := time.Now()
	for _, w := range p.workers {
		if w.ejected && now.Sub(w.ejectedAt) >= p.cooldown {
			due = append(due, w)
		}
	}
	p.mu.Unlock()
	for _, w := range due {
		ok := p.probe(w.url)
		p.mu.Lock()
		if ok {
			w.ejected = false
			w.fails = 0
		} else {
			w.ejectedAt = now
		}
		p.mu.Unlock()
	}
}

// probe asks a worker's readiness endpoint whether it is serving
// again. Only a plain 200 re-admits: a 503 is the drain answer.
func (p *workerPool) probe(url string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
