package dist

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestBackoffDeterministicJitter(t *testing.T) {
	base, max := 10*time.Millisecond, time.Second
	for attempt := 1; attempt <= 5; attempt++ {
		a := Backoff(base, attempt, "shard-a", 0, max)
		b := Backoff(base, attempt, "shard-a", 0, max)
		if a != b {
			t.Errorf("attempt %d: %s vs %s — jitter is not deterministic", attempt, a, b)
		}
		// Jitter stays inside [0.75, 1.25) of the exponential step.
		exp := base << (attempt - 1)
		if a < exp*3/4 || a > exp*5/4 {
			t.Errorf("attempt %d: %s outside jitter window of %s", attempt, a, exp)
		}
	}
	// Distinct shards desynchronize.
	same := true
	for attempt := 1; attempt <= 5; attempt++ {
		if Backoff(base, attempt, "shard-a", 0, max) != Backoff(base, attempt, "shard-b", 0, max) {
			same = false
		}
	}
	if same {
		t.Error("different shards share an identical backoff schedule")
	}
}

func TestBackoffRetryAfterHint(t *testing.T) {
	base, max := 10*time.Millisecond, 500*time.Millisecond
	// A modest hint raises the floor above the exponential step.
	if d := Backoff(base, 1, "s", 200*time.Millisecond, max); d < 150*time.Millisecond {
		t.Errorf("hinted backoff = %s, want at least 0.75×hint", d)
	}
	// A hostile hint cannot stretch past the cap: the retry budget
	// wins over the server's Retry-After.
	if d := Backoff(base, 1, "s", time.Hour, max); d > max {
		t.Errorf("hinted backoff = %s exceeds cap %s", d, max)
	}
}

func TestBackoffCap(t *testing.T) {
	max := 100 * time.Millisecond
	for attempt := 1; attempt <= 20; attempt++ {
		if d := Backoff(50*time.Millisecond, attempt, "s", 0, max); d > max {
			t.Errorf("attempt %d: %s exceeds cap %s", attempt, d, max)
		}
	}
}

// TestPoolEjectionAndReadmission: consecutive failures eject a
// worker; after the cooldown a healthy /healthz probe re-admits it,
// and a draining one keeps it out.
func TestPoolEjectionAndReadmission(t *testing.T) {
	draining := false
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			http.NotFound(w, r)
			return
		}
		if draining {
			http.Error(w, `{"ok":false,"draining":true}`, http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"ok":true,"draining":false}`))
	}))
	defer ts.Close()

	ejected := 0
	p := newWorkerPool(Options{
		Workers:       []string{ts.URL},
		EjectAfter:    2,
		EjectCooldown: 5 * time.Millisecond,
	}, http.DefaultClient, func(string, error) { ejected++ })

	w, _ := p.pick(labelHome("s"), 1)
	if w == nil {
		t.Fatal("fresh pool has no workers")
	}
	p.record(w, errTest)
	if w2, _ := p.pick(labelHome("s"), 2); w2 == nil {
		t.Fatal("one strike ejected the worker early")
	}
	p.record(w, errTest)
	if ejected != 1 {
		t.Fatalf("ejections = %d, want 1 after the strike limit", ejected)
	}
	if w2, _ := p.pick(labelHome("s"), 3); w2 != nil {
		t.Fatal("ejected worker still picked before cooldown")
	}

	// Cooldown elapses; the healthy probe re-admits.
	time.Sleep(10 * time.Millisecond)
	if w2, _ := p.pick(labelHome("s"), 4); w2 == nil {
		t.Fatal("healthy worker not re-admitted after cooldown")
	}

	// Eject again, but this time the worker is draining: the probe
	// answers 503 and the worker stays out.
	draining = true
	p.record(w, errTest)
	p.record(w, errTest)
	if ejected != 2 {
		t.Fatalf("ejections = %d, want 2", ejected)
	}
	time.Sleep(10 * time.Millisecond)
	if w2, _ := p.pick(labelHome("s"), 5); w2 != nil {
		t.Fatal("draining worker re-admitted")
	}
}

// TestPoolDrainingEjectsImmediately: a 503 submit answer ejects on
// the first strike — no point burning the strike budget on a worker
// that told us it is leaving.
func TestPoolDrainingEjectsImmediately(t *testing.T) {
	ejected := 0
	p := newWorkerPool(Options{
		Workers:       []string{"http://w1", "http://w2"},
		EjectAfter:    5,
		EjectCooldown: time.Hour,
	}, http.DefaultClient, func(string, error) { ejected++ })
	w, _ := p.pick(labelHome("s"), 1)
	p.record(w, errDraining)
	if ejected != 1 {
		t.Fatalf("ejections = %d, want immediate ejection on draining", ejected)
	}
	if w2, _ := p.pick(labelHome("s"), 1); w2 == w {
		t.Error("draining worker picked again")
	}
}

var errTest = http.ErrHandlerTimeout
