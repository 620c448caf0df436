package dist

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"lagalyzer/internal/checkpoint"
	"lagalyzer/internal/engine"
	"lagalyzer/internal/report"
	"lagalyzer/internal/serve"
	"lagalyzer/internal/trace"
)

// damagingWorkers starts n worker lagd job servers whose /state
// answers swap app's fold for one tallied at half the threshold, then
// re-encode and re-checksum the state: in a state that holds nothing
// else (a study shard's), or where the fold holds more than one session
// (a trace shard's with two of app's files). The checksum and the
// framing pass — the state worker skew or a worker bug makes.
func damagingWorkers(t *testing.T, n int, app string) []string {
	return startWorkersWith(t, n, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !strings.HasSuffix(r.URL.Path, "/state") {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			st, err := serve.DecodeShardState(rec.Body.Bytes())
			if err != nil {
				w.WriteHeader(rec.Code)
				w.Write(rec.Body.Bytes())
				return
			}
			for i, f := range st.Folds {
				if f.App() == app && (len(st.Folds) == 1 || f.Sessions() > 1) {
					skewed := engine.NewAppFold(f.Threshold() / 2)
					skewed.CloseSession(&trace.Session{App: app})
					st.Folds[i] = skewed
				}
			}
			data, err := serve.EncodeShardState(st)
			if err != nil {
				t.Error(err)
			}
			w.Write(data)
		})
	})
}

// TestDistDamagedFrameDegrades: a shard state that passes its checksum
// and framing while one of its folds is not the one asked for — here,
// tallied at another threshold — is never merged in part and never
// dropped silently. It is not retried, since the damage is the
// worker's own: the shard degrades to a local re-run, or is itemized
// with LossShard without local fallback, whether it is a study app or
// a trace shard.
func TestDistDamagedFrameDegrades(t *testing.T) {
	t.Run("study app degraded to local re-run", func(t *testing.T) {
		want, _ := localGolden(t)
		cfg := studyConfig(t)
		cfg.CheckpointDir = t.TempDir()
		c, err := New(Options{Workers: damagingWorkers(t, 2, "Arabeske"), BackoffBase: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.RunStudy(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := formatted(res); got != want {
			t.Errorf("degraded study diverges from single-node:\n--- got ---\n%s\n--- want ---\n%s", got, want)
		}
		st, err := checkpoint.Open(cfg.CheckpointDir, cfg.Hash())
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Apps(); !reflect.DeepEqual(got, []string{"Arabeske", "CrosswordSage", "Euclide"}) {
			t.Errorf("checkpointed apps = %v, want all three", got)
		}
		if s := c.Stats(); s.Degraded != 1 || s.LocalReruns != 1 || s.Retries != 0 {
			t.Errorf("stats = %+v, want one app degraded to a local re-run, no retry", s)
		}
	})

	t.Run("study app itemized", func(t *testing.T) {
		_, golden := localGolden(t)
		cfg := studyConfig(t)
		cfg.CheckpointDir = t.TempDir()
		c, err := New(Options{Workers: damagingWorkers(t, 2, "Arabeske"), BackoffBase: time.Millisecond,
			NoLocalFallback: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.RunStudy(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Health.Apps) != 1 || res.Health.Apps[0].App != "Arabeske" ||
			res.Health.Apps[0].Reason != report.LossShard {
			t.Fatalf("health apps = %+v, want Arabeske itemized as %s", res.Health.Apps, report.LossShard)
		}
		if len(res.Apps) != 2 {
			t.Fatalf("surviving apps = %d, want 2", len(res.Apps))
		}
		for _, a := range res.Apps {
			g, ok := golden.AppByName(a.App)
			if !ok || !reflect.DeepEqual(a.Overview, g.Overview) {
				t.Errorf("app %s row diverges from single-node", a.App)
			}
		}
		st, err := checkpoint.Open(cfg.CheckpointDir, cfg.Hash())
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Apps(); !reflect.DeepEqual(got, []string{"CrosswordSage", "Euclide"}) {
			t.Errorf("checkpointed apps = %v, want the two that survived", got)
		}
		if s := c.Stats(); s.Lost != 1 || s.Retries != 0 {
			t.Errorf("stats = %+v, want one lost app, no retry", s)
		}
	})

	dir := tracesCorpus(t)
	opts := report.LoadOptions{Salvage: true}
	want, err := report.AnalyzeTraceDirContext(context.Background(), dir, opts, 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("trace shard degraded to local load", func(t *testing.T) {
		c, err := New(Options{Workers: damagingWorkers(t, 2, "CrosswordSage"), BackoffBase: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.RunTraces(context.Background(), dir, opts, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := formatted(res), formatted(want); got != want {
			t.Errorf("degraded trace study diverges:\n--- got ---\n%s\n--- want ---\n%s", got, want)
		}
		if s := c.Stats(); s.Degraded != 1 || s.LocalReruns != 1 || s.Retries != 0 {
			t.Errorf("stats = %+v, want one shard degraded to a local load, no retry", s)
		}
	})

	t.Run("trace shard itemized without fallback", func(t *testing.T) {
		c, err := New(Options{Workers: damagingWorkers(t, 2, "CrosswordSage"), BackoffBase: time.Millisecond,
			NoLocalFallback: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.RunTraces(context.Background(), dir, opts, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Health.Apps) != 1 || res.Health.Apps[0].App != "files[0:3]" ||
			res.Health.Apps[0].Reason != report.LossShard || res.Health.SessionsSkipped != 3 {
			t.Fatalf("health = %+v, want files[0:3] itemized as %s with its 3 files", res.Health, report.LossShard)
		}
		paths, err := report.ListTraceFiles(dir)
		if err != nil {
			t.Fatal(err)
		}
		survivor, err := report.AnalyzeTraceDirContext(context.Background(), dir,
			report.LoadOptions{Salvage: true, Paths: paths[3:]}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Rows, survivor.Rows) {
			t.Errorf("rows differ from the surviving shard's local analysis:\n%s\nwant:\n%s",
				report.FormatAll(res), report.FormatAll(survivor))
		}
		if s := c.Stats(); s.Lost != 1 || s.Retries != 0 {
			t.Errorf("stats = %+v, want one lost shard, no retry", s)
		}
	})
}
