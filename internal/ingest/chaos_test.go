package ingest

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"lagalyzer/internal/faultinject"
	"lagalyzer/internal/lila"
)

// TestIngestChaosFlakyClients is the seeded chaos suite: a concurrent
// swarm of clients whose uploads refuse, reset, stall, truncate, and
// corrupt on a deterministic plan, against a journaled server — then a
// violent kill with sessions mid-flight, a resume over the WAL, a
// second flaky wave, and a graceful drain. Invariants: the server
// never errors on hostile streams (it salvages), the session registry
// and memory accounting return to zero, every non-refused session is
// tallied exactly once, and both restarts recover the committed
// tables exactly. The uploads are text in one run and v2 in another:
// a v2 upload cut off mid-body must still salvage the blocks that
// arrived.
func TestIngestChaosFlakyClients(t *testing.T) {
	for _, format := range []lila.Format{lila.FormatText, lila.FormatV2} {
		t.Run(format.String(), func(t *testing.T) { chaosFlakyClients(t, format) })
	}
}

func chaosFlakyClients(t *testing.T, format lila.Format) {
	dir := t.TempDir()
	cfg := Config{
		WindowDur:   goldenWindow,
		JournalDir:  dir,
		ReadTimeout: 10 * time.Second,
		IdleTimeout: time.Minute,
	}
	apps := []string{"CrosswordSage", "Jmol", "Arabeske", "FindBugs"}
	faults := []faultinject.Fault{
		faultinject.FaultNone, faultinject.FaultRefuse,
		faultinject.FaultReset, faultinject.FaultStall,
		faultinject.FaultTruncate, faultinject.FaultCorrupt,
	}

	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(mountIngest(srv1))
	ft := &faultinject.FlakyTransport{
		RequestPlan: func(call int, req *http.Request) faultinject.Fault {
			return faults[(call-1)%len(faults)]
		},
		Stall: 20 * time.Millisecond,
		Seed:  77,
	}
	client := &http.Client{Transport: ft}

	const wave1 = 12
	var wg sync.WaitGroup
	for i := 0; i < wave1; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d := delivery{
				app:     apps[i%len(apps)],
				session: "c" + string(rune('a'+i)),
				body:    encodeSession(t, format, apps[i%len(apps)], uint64(100+i), 20),
			}
			// Refused and reset uploads error client-side; everything
			// else must come back as a response, never a hang.
			resp, _, err := postDelivery(t, client, hs1.URL, d)
			if err == nil && resp.StatusCode != http.StatusOK {
				t.Errorf("chaos post %s/%s: status %d", d.app, d.session, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	waitFor(t, func() bool { return srv1.Sessions() == 0 })
	if srv1.MemInUse() != 0 {
		t.Errorf("memory accounting leaked: %d", srv1.MemInUse())
	}

	// Each of the 6 faults hit exactly wave1/6 calls; only refused
	// uploads never reach the server, so every other session is
	// tallied exactly once — no double-counting, no losses.
	total := 0
	for _, at := range srv1.Tables().Apps {
		total += at.Sessions
	}
	if want := wave1 - wave1/len(faults); total != want {
		t.Errorf("tallied %d sessions, want %d (one per non-refused upload)", total, want)
	}
	if len(srv1.Health().Files) == 0 {
		t.Error("no session outcomes in the health ring")
	}

	// Violent kill with live sessions: open streams, then slam the
	// connections shut. The handlers salvage what arrived; the WAL
	// keeps every commit.
	var killWG sync.WaitGroup
	for i := 0; i < 3; i++ {
		killWG.Add(1)
		go func(i int) {
			defer killWG.Done()
			d := delivery{
				app:     apps[i],
				session: "kill" + string(rune('a'+i)),
				body:    encodeSession(t, format, apps[i], uint64(200+i), 20),
			}
			postDelivery(t, &http.Client{Transport: &faultinject.FlakyTransport{
				RequestPlan: func(int, *http.Request) faultinject.Fault { return faultinject.FaultStall },
				Stall:       200 * time.Millisecond,
			}}, hs1.URL, d)
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let the streams open
	hs1.CloseClientConnections()
	killWG.Wait()
	waitFor(t, func() bool { return srv1.Sessions() == 0 })
	committed := srv1.Tables()
	hs1.Close()
	// srv1 is now abandoned mid-life: no drain, no rotation.

	srv2, err := New(cfg)
	if err != nil {
		t.Fatalf("resume over WAL after kill: %v", err)
	}
	if got := srv2.Tables(); !reflect.DeepEqual(got, committed) {
		compareTables(t, got, committed)
		t.Fatal("WAL recovery diverged from the killed server's tables")
	}

	// Second flaky wave on the resumed server, then a graceful drain.
	hs2 := httptest.NewServer(mountIngest(srv2))
	ft2 := &faultinject.FlakyTransport{
		RequestPlan: faultinject.SeededPlan(99, 1, 3, faultinject.FaultCorrupt),
		Seed:        99,
	}
	client2 := &http.Client{Transport: ft2}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d := delivery{
				app:     apps[i%len(apps)],
				session: "w2" + string(rune('a'+i)),
				body:    encodeSession(t, format, apps[i%len(apps)], uint64(300+i), 15),
			}
			resp, _, err := postDelivery(t, client2, hs2.URL, d)
			if err == nil && resp.StatusCode != http.StatusOK {
				t.Errorf("wave-2 post %s/%s: status %d", d.app, d.session, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	hs2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final := srv2.Tables()
	if left, err := srv2.Shutdown(ctx); err != nil || left != 0 {
		t.Fatalf("graceful shutdown: left=%d err=%v", left, err)
	}

	srv3, err := New(cfg)
	if err != nil {
		t.Fatalf("restart over rotated snapshot: %v", err)
	}
	defer srv3.Shutdown(context.Background())
	if got := srv3.Tables(); !reflect.DeepEqual(got, final) {
		compareTables(t, got, final)
		t.Fatal("snapshot recovery diverged after the chaos run")
	}
}
