package dist

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

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
