package dist

import (
	"context"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"lagalyzer/internal/apps"
	"lagalyzer/internal/faultinject"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/report"
	"lagalyzer/internal/serve"
	"lagalyzer/internal/sim"
)

// The multi-lagd harness: real serve.Server instances behind
// httptest, a coordinator in front, and a FlakyTransport between them
// injecting the failures the robustness layers exist for. Every
// golden test pins the same contract: the distributed result is
// byte-identical to the single-node run — including the runs where
// the network refuses, resets, stalls, truncates, and corrupts.

// startWorkers spins up n worker lagd job servers and returns their
// base URLs.
func startWorkers(t testing.TB, n int) []string {
	return startWorkersWith(t, n, func(h http.Handler) http.Handler { return h })
}

// startWorkersWith is startWorkers with each worker's handler passed
// through wrap.
func startWorkersWith(t testing.TB, n int, wrap func(http.Handler) http.Handler) []string {
	return startWorkersConfig(t, n, serve.Config{Workers: 1}, wrap)
}

// startWorkersConfig is startWorkersWith with each worker configured
// by cfg.
func startWorkersConfig(t testing.TB, n int, cfg serve.Config, wrap func(http.Handler) http.Handler) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		s, err := serve.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(wrap(s.Handler()))
		t.Cleanup(ts.Close)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		})
		urls[i] = ts.URL
	}
	return urls
}

// studyProfiles resolves the three-app study every golden subtest
// shares.
func studyProfiles(t testing.TB, names ...string) []*sim.Profile {
	t.Helper()
	var ps []*sim.Profile
	for _, name := range names {
		p, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	return ps
}

func studyConfig(t testing.TB) report.StudyConfig {
	return report.StudyConfig{
		Apps:           studyProfiles(t, "Arabeske", "CrosswordSage", "Euclide"),
		SessionsPerApp: 2,
		Seed:           7,
		SessionSeconds: 20,
		Sequential:     true,
	}
}

// localGolden memoizes the single-node reference run.
var (
	goldenOnce sync.Once
	goldenText string
	goldenRes  *report.StudyResult
)

func localGolden(t *testing.T) (string, *report.StudyResult) {
	t.Helper()
	goldenOnce.Do(func() {
		res, err := report.RunStudy(studyConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		goldenRes = res
		goldenText = report.FormatAll(res) + report.FormatHealth(res.Health)
	})
	return goldenText, goldenRes
}

func formatted(res *report.StudyResult) string {
	return report.FormatAll(res) + report.FormatHealth(res.Health)
}

// primaryIndex replicates the pool's deterministic rotation so tests
// can place a faulty worker exactly where a shard's first attempt
// will land.
func primaryIndex(label string, attempt, workers int) int {
	h := fnv.New32a()
	h.Write([]byte(label))
	i := (int(h.Sum32()) + attempt - 1) % workers
	if i < 0 {
		i += workers
	}
	return i
}

func hostOf(url string) string { return strings.TrimPrefix(url, "http://") }

// TestDistStudyGolden is the acceptance pin: a 3-worker distributed
// study is byte-identical to the single-node run, in a clean network
// and under every injected fault class.
func TestDistStudyGolden(t *testing.T) {
	want, _ := localGolden(t)
	cfg := studyConfig(t)

	run := func(t *testing.T, opt Options) (*report.StudyResult, *Coordinator) {
		t.Helper()
		c, err := New(opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.RunStudy(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := formatted(res); got != want {
			t.Errorf("distributed output diverges from single-node:\n--- got ---\n%s\n--- want ---\n%s", got, want)
		}
		return res, c
	}

	t.Run("clean", func(t *testing.T) {
		workers := startWorkers(t, 3)
		res, c := run(t, Options{Workers: workers})
		if res.Health.Degraded() {
			t.Errorf("clean run degraded: %+v", res.Health)
		}
		if st := c.Stats(); st.Shards != 3 || st.Retries != 0 || st.Degraded != 0 {
			t.Errorf("stats = %+v, want 3 clean shards", st)
		}
	})

	t.Run("retries under refused connections", func(t *testing.T) {
		workers := startWorkers(t, 3)
		ft := &faultinject.FlakyTransport{Plan: faultinject.FirstNPlan(2, faultinject.FaultRefuse)}
		_, c := run(t, Options{
			Workers:     workers,
			HTTPClient:  &http.Client{Transport: ft},
			BackoffBase: time.Millisecond,
			MaxAttempts: 4,
		})
		if st := c.Stats(); st.Retries < 1 {
			t.Errorf("stats = %+v, want retries after refused submits", st)
		}
		if ft.Injected() != 2 {
			t.Errorf("injected = %d, want 2", ft.Injected())
		}
	})

	t.Run("retries under corrupted shard state", func(t *testing.T) {
		workers := startWorkers(t, 3)
		ft := &faultinject.FlakyTransport{
			Plan: faultinject.PathPlan("/state", 1, faultinject.FaultCorrupt), Seed: 41}
		_, c := run(t, Options{
			Workers:     workers,
			HTTPClient:  &http.Client{Transport: ft},
			BackoffBase: time.Millisecond,
		})
		if st := c.Stats(); st.Retries < 1 {
			t.Errorf("stats = %+v, want a retry after the corrupted state fetch", st)
		}
	})

	t.Run("retries under truncated shard state", func(t *testing.T) {
		workers := startWorkers(t, 3)
		ft := &faultinject.FlakyTransport{
			Plan: faultinject.PathPlan("/state", 1, faultinject.FaultTruncate)}
		_, c := run(t, Options{
			Workers:     workers,
			HTTPClient:  &http.Client{Transport: ft},
			BackoffBase: time.Millisecond,
		})
		if st := c.Stats(); st.Retries < 1 {
			t.Errorf("stats = %+v, want a retry after the truncated state fetch", st)
		}
	})

	t.Run("retries under mid-body reset", func(t *testing.T) {
		workers := startWorkers(t, 3)
		ft := &faultinject.FlakyTransport{
			Plan: faultinject.PathPlan("/state", 1, faultinject.FaultReset)}
		_, c := run(t, Options{
			Workers:     workers,
			HTTPClient:  &http.Client{Transport: ft},
			BackoffBase: time.Millisecond,
		})
		if st := c.Stats(); st.Retries < 1 {
			t.Errorf("stats = %+v, want a retry after the reset state fetch", st)
		}
	})

	t.Run("worker ejection", func(t *testing.T) {
		// Place a connection-refusing worker exactly where the first
		// app's first attempt lands; one strike ejects it and the
		// retry succeeds elsewhere.
		workers := startWorkers(t, 3)
		bad := primaryIndex("Arabeske", 1, 3)
		ft := &faultinject.FlakyTransport{
			Plan: faultinject.HostPlan(hostOf(workers[bad]), faultinject.FaultRefuse)}
		_, c := run(t, Options{
			Workers:     workers,
			HTTPClient:  &http.Client{Transport: ft},
			BackoffBase: time.Millisecond,
			EjectAfter:  1,
			// Cooldown far past the test: the ejected worker stays out.
			EjectCooldown: time.Hour,
		})
		st := c.Stats()
		if st.Ejected != 1 {
			t.Errorf("stats = %+v, want exactly one ejection", st)
		}
		if st.Retries < 1 {
			t.Errorf("stats = %+v, want a retry off the ejected worker", st)
		}
	})

	t.Run("retries a stall past the attempt deadline", func(t *testing.T) {
		// The first app's first attempt stalls on its worker until the
		// attempt deadline; that deadline is transient, so the shard is
		// retried on the next worker instead of degrading.
		workers := startWorkers(t, 3)
		bad := primaryIndex("Arabeske", 1, 3)
		ft := &faultinject.FlakyTransport{
			Plan:  faultinject.HostPlan(hostOf(workers[bad]), faultinject.FaultStall),
			Stall: 10 * time.Second,
		}
		_, c := run(t, Options{
			Workers:        workers,
			HTTPClient:     &http.Client{Transport: ft},
			AttemptTimeout: 500 * time.Millisecond,
			BackoffBase:    time.Millisecond,
			EjectCooldown:  time.Hour,
		})
		if st := c.Stats(); st.Retries < 1 || st.Degraded != 0 {
			t.Errorf("stats = %+v, want a retry off the stalled worker and no degraded shard", st)
		}
	})
}

// TestDistPermanentFailureDegrades: a shard no worker can run — its
// job spec refused with 400, or its job failed with Status.Permanent —
// reaches one worker only and degrades at once to the local re-run,
// whose output is the single-node run's.
func TestDistPermanentFailureDegrades(t *testing.T) {
	cfg := report.StudyConfig{
		Apps:           studyProfiles(t, "CrosswordSage"),
		SessionsPerApp: 1,
		Seed:           3,
		SessionSeconds: 20,
		Sequential:     true,
	}
	local, err := report.RunStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	answers := map[string]func(w http.ResponseWriter, r *http.Request){
		"submit answered 400": func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "serve: unknown job kind", http.StatusBadRequest)
		},
		"job failed permanently": func(w http.ResponseWriter, r *http.Request) {
			if r.Method == "POST" {
				w.WriteHeader(http.StatusAccepted)
				io.WriteString(w, `{"id":"job-1"}`)
				return
			}
			io.WriteString(w, `{"id":"job-1","kind":"shard","state":"failed","attempts":1,"error":"no such file","permanent":true}`)
		},
	}
	for name, answer := range answers {
		t.Run(name, func(t *testing.T) {
			var mu sync.Mutex
			posted := map[string]int{}
			workers := startWorkersWith(t, 2, func(h http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if !strings.HasPrefix(r.URL.Path, "/jobs") {
						h.ServeHTTP(w, r)
						return
					}
					if r.Method == "POST" {
						mu.Lock()
						posted[r.Host]++
						mu.Unlock()
					}
					answer(w, r)
				})
			})
			c, err := New(Options{Workers: workers, BackoffBase: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.RunStudy(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := formatted(res), formatted(local); got != want {
				t.Errorf("degraded output diverges:\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
			if len(posted) != 1 {
				t.Errorf("POST /jobs per worker = %v, want one worker", posted)
			}
			if st := c.Stats(); st.Retries != 0 || st.Degraded != 1 || st.LocalReruns != 1 {
				t.Errorf("stats = %+v, want no retry and one local re-run", st)
			}
		})
	}
}

// TestDistStudyHedgeWin: a stalling primary is out-raced by a hedge
// on the other worker, and the result is still byte-identical.
func TestDistStudyHedgeWin(t *testing.T) {
	cfg := report.StudyConfig{
		Apps:           studyProfiles(t, "CrosswordSage"),
		SessionsPerApp: 1,
		Seed:           3,
		SessionSeconds: 20,
		Sequential:     true,
	}
	local, err := report.RunStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}

	workers := startWorkers(t, 2)
	slow := primaryIndex("CrosswordSage", 1, 2)
	ft := &faultinject.FlakyTransport{
		Plan:  faultinject.HostPlan(hostOf(workers[slow]), faultinject.FaultStall),
		Stall: 10 * time.Second,
	}
	c, err := New(Options{
		Workers:    workers,
		HTTPClient: &http.Client{Transport: ft},
		HedgeAfter: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := c.RunStudy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := formatted(res), formatted(local); got != want {
		t.Errorf("hedged output diverges:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	st := c.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Errorf("stats = %+v, want exactly one winning hedge", st)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("hedge did not rescue the stalled shard: took %s", elapsed)
	}
}

// TestDistStudyDegradedLocal: with every worker refusing
// connections, each shard exhausts its remote budget and re-runs
// locally on the coordinator — and the output is STILL byte-identical
// to the single-node run, because the local fallback is the
// single-node code.
func TestDistStudyDegradedLocal(t *testing.T) {
	want, _ := localGolden(t)
	workers := startWorkers(t, 2)
	ft := &faultinject.FlakyTransport{
		Plan: func(_ int, _ *http.Request) faultinject.Fault { return faultinject.FaultRefuse }}
	c, err := New(Options{
		Workers:     workers,
		HTTPClient:  &http.Client{Transport: ft},
		BackoffBase: time.Millisecond,
		MaxAttempts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunStudy(context.Background(), studyConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := formatted(res); got != want {
		t.Errorf("degraded output diverges from single-node:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	st := c.Stats()
	if st.Degraded != 3 || st.LocalReruns != 3 || st.Lost != 0 {
		t.Errorf("stats = %+v, want all 3 shards degraded to local re-runs", st)
	}
}

// TestDistStudyItemizedLoss: with local fallback disabled, an
// unrecoverable shard is itemized in StudyHealth with the shard_lost
// reason — never silently dropped — while the surviving apps' rows
// match the single-node run exactly.
func TestDistStudyItemizedLoss(t *testing.T) {
	_, golden := localGolden(t)
	workers := startWorkers(t, 2)
	// Refuse only the submissions that carry the Arabeske shard (body
	// sniffing via GetBody keeps the request replayable).
	ft := &faultinject.FlakyTransport{
		Plan: func(_ int, req *http.Request) faultinject.Fault {
			if req.Method == "POST" && req.GetBody != nil {
				rc, err := req.GetBody()
				if err != nil {
					return faultinject.FaultNone
				}
				body, _ := io.ReadAll(rc)
				rc.Close()
				if strings.Contains(string(body), "Arabeske") {
					return faultinject.FaultRefuse
				}
			}
			return faultinject.FaultNone
		},
	}
	c, err := New(Options{
		Workers:         workers,
		HTTPClient:      &http.Client{Transport: ft},
		BackoffBase:     time.Millisecond,
		MaxAttempts:     2,
		NoLocalFallback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunStudy(context.Background(), studyConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial() {
		t.Error("study with a lost shard is not partial")
	}
	if len(res.Health.Apps) != 1 || res.Health.Apps[0].App != "Arabeske" ||
		res.Health.Apps[0].Reason != report.LossShard {
		t.Fatalf("health apps = %+v, want Arabeske itemized as %s",
			res.Health.Apps, report.LossShard)
	}
	if !strings.Contains(report.FormatHealth(res.Health), report.LossShard) {
		t.Errorf("formatted health omits the loss reason:\n%s", report.FormatHealth(res.Health))
	}
	if len(res.Apps) != 2 {
		t.Fatalf("surviving apps = %d, want 2", len(res.Apps))
	}
	for _, a := range res.Apps {
		g, ok := golden.AppByName(a.App)
		if !ok {
			t.Fatalf("app %s missing from golden", a.App)
		}
		if !reflect.DeepEqual(a.Overview, g.Overview) {
			t.Errorf("app %s row diverges from single-node", a.App)
		}
	}
	if st := c.Stats(); st.Lost != 1 || st.Degraded != 1 {
		t.Errorf("stats = %+v, want one lost shard", st)
	}
}

// tracesCorpus writes a six-file corpus (two apps, one file damaged)
// for the distributed loader tests.
func tracesCorpus(t testing.TB) string {
	t.Helper()
	dir := t.TempDir()
	write := func(name, app string, id int, corrupt func([]byte) []byte) {
		t.Helper()
		p, err := apps.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sim.Run(sim.Config{Profile: p, SessionID: id, Seed: 11, SessionSeconds: 10})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := lila.WriteSession(&b, lila.FormatV2, s); err != nil {
			t.Fatal(err)
		}
		data := []byte(b.String())
		if corrupt != nil {
			data = corrupt(data)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("a0.lila", "CrosswordSage", 0, nil)
	write("a1.lila", "CrosswordSage", 1, nil)
	write("b0.lila", "JEdit", 0, nil)
	write("b1.lila", "JEdit", 1, nil)
	write("c_bad.lila", "CrosswordSage", 2, func(b []byte) []byte {
		return faultinject.TruncateFrac(b, 0.5)
	})
	write("d0.lila", "JEdit", 2, nil)
	return dir
}

// TestDistTracesGolden: a corpus sharded over two workers folds —
// session order, health ledger, and the analysis derived from them —
// byte-identically to a single-node scan of held sessions, faults
// included.
func TestDistTracesGolden(t *testing.T) {
	dir := tracesCorpus(t)
	opts := report.LoadOptions{Salvage: true}
	wantSuites, wantHealth, err := report.LoadTraceDirContext(context.Background(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantRes := report.AnalyzeSuitesContext(context.Background(), wantSuites, 0, nil)
	wantRes.Health.Merge(wantHealth)
	want := formatted(wantRes)

	check := func(t *testing.T, c *Coordinator) {
		t.Helper()
		res, err := c.RunTraces(context.Background(), dir, opts, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if text := formatted(res); text != want {
			t.Errorf("distributed trace study diverges:\n--- got ---\n%s\n--- want ---\n%s", text, want)
		}
	}

	t.Run("clean", func(t *testing.T) {
		c, err := New(Options{Workers: startWorkers(t, 2)})
		if err != nil {
			t.Fatal(err)
		}
		check(t, c)
		if st := c.Stats(); st.Shards != 2 || st.Degraded != 0 {
			t.Errorf("stats = %+v, want 2 clean shards", st)
		}
	})

	t.Run("faulty network", func(t *testing.T) {
		ft := &faultinject.FlakyTransport{
			Plan: faultinject.PathPlan("/state", 1, faultinject.FaultCorrupt), Seed: 17}
		c, err := New(Options{
			Workers:     startWorkers(t, 2),
			HTTPClient:  &http.Client{Transport: ft},
			BackoffBase: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		check(t, c)
		if st := c.Stats(); st.Retries < 1 {
			t.Errorf("stats = %+v, want a retry", st)
		}
	})

	t.Run("all workers down degrades to local load", func(t *testing.T) {
		ft := &faultinject.FlakyTransport{
			Plan: func(_ int, _ *http.Request) faultinject.Fault { return faultinject.FaultRefuse }}
		c, err := New(Options{
			Workers:     startWorkers(t, 2),
			HTTPClient:  &http.Client{Transport: ft},
			BackoffBase: time.Millisecond,
			MaxAttempts: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		check(t, c)
		if st := c.Stats(); st.Degraded != 2 || st.LocalReruns != 2 {
			t.Errorf("stats = %+v, want both shards degraded to local loads", st)
		}
	})

	t.Run("workers under a session budget", func(t *testing.T) {
		// Every session but the damaged one outgrows a held build's
		// 64 KiB budget; a fold keeps only its open episodes, so the
		// workers analyze each one, as a local fold does.
		limits := lila.Limits{MaxSessionBytes: 64 << 10}
		local, err := report.AnalyzeTraceDirContext(context.Background(), dir,
			report.LoadOptions{Salvage: true, Limits: limits}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(Options{Workers: startWorkersConfig(t, 2, serve.Config{Workers: 1, Limits: limits},
			func(h http.Handler) http.Handler { return h })})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.RunTraces(context.Background(), dir, opts, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if text := formatted(res); text != formatted(local) {
			t.Errorf("budgeted workers diverge from a local fold:\n--- got ---\n%s\n--- want ---\n%s", text, formatted(local))
		}
		if res.Health.SessionsSkipped != 0 {
			t.Errorf("sessions skipped = %d, want 0", res.Health.SessionsSkipped)
		}
		for _, fh := range res.Health.Files {
			if fh.DegradedToStream {
				t.Errorf("%s degraded_to_stream on a worker", fh.Path)
			}
		}
	})
}

// TestDistTracesConcurrentDispatch: trace shards run at once, one per
// worker. Each worker holds a shard submission until the other worker
// has received one too, so a coordinator that dispatched one shard at
// a time would lose both; the result stays byte-identical to the
// single-node scan.
func TestDistTracesConcurrentDispatch(t *testing.T) {
	dir := tracesCorpus(t)
	opts := report.LoadOptions{Salvage: true}
	want, err := report.AnalyzeTraceDirContext(context.Background(), dir, opts, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	received := map[string]bool{}
	both := make(chan struct{})
	workers := startWorkersWith(t, 2, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == "POST" && r.URL.Path == "/jobs" {
				mu.Lock()
				received[r.Host] = true
				if len(received) == 2 {
					select {
					case <-both:
					default:
						close(both)
					}
				}
				mu.Unlock()
				select {
				case <-both:
				case <-time.After(5 * time.Second):
					http.Error(w, "the other worker never received a shard", http.StatusInternalServerError)
					return
				}
			}
			h.ServeHTTP(w, r)
		})
	})
	c, err := New(Options{Workers: workers, MaxAttempts: 1, NoLocalFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunTraces(context.Background(), dir, opts, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := formatted(res), formatted(want); got != want {
		t.Errorf("concurrent trace study diverges:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if st := c.Stats(); st.Shards != 2 || st.Degraded != 0 {
		t.Errorf("stats = %+v, want 2 clean shards", st)
	}
}

// TestDistTracesItemizedLoss: a lost trace shard is itemized (files
// counted, reason recorded), and the surviving shard still analyzes.
func TestDistTracesItemizedLoss(t *testing.T) {
	dir := tracesCorpus(t)
	ft := &faultinject.FlakyTransport{
		Plan: func(_ int, req *http.Request) faultinject.Fault {
			if req.Method == "POST" && req.GetBody != nil {
				rc, err := req.GetBody()
				if err != nil {
					return faultinject.FaultNone
				}
				body, _ := io.ReadAll(rc)
				rc.Close()
				if strings.Contains(string(body), "a0.lila") {
					return faultinject.FaultRefuse
				}
			}
			return faultinject.FaultNone
		},
	}
	c, err := New(Options{
		Workers:         startWorkers(t, 2),
		HTTPClient:      &http.Client{Transport: ft},
		BackoffBase:     time.Millisecond,
		MaxAttempts:     2,
		NoLocalFallback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.RunTraces(context.Background(), dir, report.LoadOptions{Salvage: true}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Health.Apps) != 1 || got.Health.Apps[0].Reason != report.LossShard {
		t.Fatalf("health = %+v, want one shard_lost entry", got.Health.Apps)
	}
	if got.Health.SessionsSkipped != 3 {
		t.Errorf("sessions skipped = %d, want the lost shard's 3 files", got.Health.SessionsSkipped)
	}
	// The surviving shard contributes exactly what a local analysis of
	// its files would.
	paths, err := report.ListTraceFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := report.AnalyzeTraceDirContext(context.Background(), dir,
		report.LoadOptions{Salvage: true, Paths: paths[3:]}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sessions int
	for _, a := range got.Apps {
		sessions += a.Overview.Sessions
	}
	if sessions == 0 || !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Errorf("surviving rows (%d sessions) differ from the local analysis of the shard's files:\n%s\nwant:\n%s",
			sessions, report.FormatAll(got), report.FormatAll(want))
	}
}
