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
	"lagalyzer/internal/faultinject"
	"lagalyzer/internal/report"
	"lagalyzer/internal/serve"
	"lagalyzer/internal/trace"
	"lagalyzer/internal/treebuild"
)

// damagingWorkers starts n worker lagd job servers whose /state
// answers damage app's share of the state, then re-frame and
// re-checksum it: the last session of each of app's frames that hold
// more than one session is bit-flipped, so that only its strict decode
// fails, and in a state that holds more than one of app's folds the
// last is swapped for one tallied at another threshold. The checksum and the framing pass — the state worker skew
// or a worker bug makes.
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
			for i, frame := range st.Frames {
				name, traces, _, err := treebuild.SplitSuite(frame)
				if err != nil || name != app || len(traces) < 2 {
					continue
				}
				last := len(traces) - 1
				traces[last] = faultinject.FlipBits(traces[last], 5, 4, len(traces[last])/2, 0)
				if _, err := treebuild.DecodeSession(traces[last], treebuild.Options{}); err == nil {
					t.Error("damaged session still decodes")
				}
				st.Frames[i] = treebuild.AppendTraces(nil, name, traces)
			}
			var mine []int
			for i, f := range st.Folds {
				if f.App() == app {
					mine = append(mine, i)
				}
			}
			if len(mine) > 1 {
				last := mine[len(mine)-1]
				skewed := engine.NewAppFold(st.Folds[last].Threshold()/2, engine.Options{})
				skewed.CloseSession(&trace.Session{App: app})
				st.Folds[last] = skewed
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
// and framing while a later session of one frame fails strict decode,
// or one of its folds was tallied at another threshold, is never
// merged in part and never dropped silently. It is not retried, since
// the damage is the worker's own: a study app is itemized with
// LossShard (and not checkpointed), and a trace shard degrades to a
// local re-run, or is itemized with LossShard without local fallback.
func TestDistDamagedFrameDegrades(t *testing.T) {
	t.Run("study app itemized", func(t *testing.T) {
		_, golden := localGolden(t)
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
			t.Errorf("checkpointed apps = %v, want the two that folded", got)
		}
		if s := c.Stats(); s.Retries != 0 {
			t.Errorf("stats = %+v, want no retry of a well-framed state", s)
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
