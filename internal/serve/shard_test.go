package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"lagalyzer/internal/apps"
	"lagalyzer/internal/checkpoint"
	"lagalyzer/internal/engine"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/report"
	"lagalyzer/internal/sim"
	"lagalyzer/internal/trace"
)

// TestShardJobStudy runs a study-shaped shard through the real
// pipeline and checks the partial-state contract end to end: the
// /state endpoint serves a checksum-framed payload whose one fold
// finishes exactly as a resume from a local study's checkpoint of the
// app does, a second dispatch ships the fold the worker stored without
// simulating again, and /result refuses the shard with a pointer to
// /state. Folds are compared finished, not as bytes: gob numbers its
// wire types per process, in first-use order.
func TestShardJobStudy(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, StateDir: t.TempDir(), SelfProfile: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	p, err := apps.ByName("CrosswordSage")
	if err != nil {
		t.Fatal(err)
	}
	cfg := report.StudyConfig{Apps: []*sim.Profile{p}, SessionsPerApp: 2, Seed: 7, SessionSeconds: 20,
		CheckpointDir: t.TempDir()}
	check := func(f *engine.AppFold) error { return cfg.CheckFold(p.Name, f) }
	spec := JobSpec{Kind: "shard", Apps: []string{p.Name}, Sessions: 2, Seed: 7, Seconds: 20}
	dispatch := func() (id string, result *engine.Result) {
		t.Helper()
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, job.ID, StateDone)
		resp, err := http.Get(ts.URL + "/jobs/" + job.ID + "/state")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/state status = %s", resp.Status)
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		st, err := DecodeShardState(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Folds) != 1 {
			t.Fatalf("shard folds = %d, want one", len(st.Folds))
		}
		if err := check(st.Folds[0]); err != nil {
			t.Fatal(err)
		}
		return job.ID, engine.Finish(context.Background(), p.Name, st.Folds)
	}
	first, shipped := dispatch()

	// The fold is the one a single-node study checkpoints for the app:
	// same seed, same session IDs, same tallies.
	if _, err := report.RunStudy(cfg); err != nil {
		t.Fatal(err)
	}
	local, err := checkpoint.Open(cfg.CheckpointDir, cfg.Hash())
	if err != nil {
		t.Fatal(err)
	}
	resumed, ok := local.Load(p.Name, check)
	if !ok {
		t.Fatal("local study checkpointed no fold")
	}
	if want := engine.Finish(context.Background(), p.Name, []*engine.AppFold{resumed}); !reflect.DeepEqual(shipped, want) {
		t.Error("shipped fold finishes differently from a resume of the local checkpoint")
	}

	// A second dispatch hits the worker's store: the same fold, and no
	// simulate span in its self-trace.
	second, again := dispatch()
	if !reflect.DeepEqual(again, shipped) {
		t.Error("second dispatch shipped a different fold")
	}
	if spans := spanNames(t, s, first); !spans["simulate"] {
		t.Errorf("first dispatch spans %v, want a simulate span", spans)
	}
	if spans := spanNames(t, s, second); spans["simulate"] {
		t.Errorf("second dispatch simulated again (spans %v)", spans)
	}

	// A shard has no rendered result; callers are pointed at /state.
	rr, err := http.Get(ts.URL + "/jobs/" + first + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	if rr.StatusCode != http.StatusConflict {
		t.Errorf("/result on a shard = %s, want 409", rr.Status)
	}
	body, _ := io.ReadAll(rr.Body)
	if !strings.Contains(string(body), "/state") {
		t.Errorf("/result refusal %q does not point at /state", body)
	}
}

// spanNames returns the names of the spans in job id's self-trace: the
// methods its call records carry.
func spanNames(t *testing.T, s *Server, id string) map[string]bool {
	t.Helper()
	data, ok := s.SelfTrace(id)
	if !ok {
		t.Fatalf("job %s has no self-trace", id)
	}
	lr, err := lila.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for {
		rec, err := lr.Read()
		if err == io.EOF {
			return names
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Type == lila.RecCall {
			names[rec.Method] = true
		}
	}
}

// shardCorpus writes a tiny two-app trace corpus and returns the dir
// and its sorted file list.
func shardCorpus(t *testing.T) (string, []string) {
	t.Helper()
	dir := t.TempDir()
	write := func(name, app string, id int) {
		t.Helper()
		p, err := apps.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := sim.Run(sim.Config{Profile: p, SessionID: id, Seed: 5, SessionSeconds: 10})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := lila.WriteSession(&b, lila.FormatV2, sess); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("a0.lila", "CrosswordSage", 0)
	write("a1.lila", "CrosswordSage", 1)
	write("b0.lila", "JEdit", 0)
	paths, err := report.ListTraceFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	return dir, paths
}

// TestShardJobTraces: a traces-shaped shard folds exactly its file
// slice and ships one closed fold per app, which analyzes byte for
// byte as a local trace-directory analysis of the slice.
func TestShardJobTraces(t *testing.T) {
	dir, paths := shardCorpus(t)
	s := newTestServer(t, Config{Workers: 1})

	job, err := s.Submit(JobSpec{Kind: "shard", Dir: dir, Files: paths[:2]})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, job.ID, StateDone)
	data, ok := s.ShardStateBytes(job.ID)
	if !ok {
		t.Fatal("done traces shard has no state")
	}
	st, err := DecodeShardState(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Folds) != 1 {
		t.Fatalf("state has %d folds, want 1", len(st.Folds))
	}
	if f := st.Folds[0]; f.App() != "CrosswordSage" || f.Sessions() != 2 || f.Threshold() != trace.DefaultPerceptibleThreshold {
		t.Errorf("fold of %d %q sessions at %v, want 2 CrosswordSage ones at the default threshold", f.Sessions(), f.App(), f.Threshold())
	}
	want, err := report.AnalyzeTraceDirContext(context.Background(), dir, report.LoadOptions{Paths: paths[:2]}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := report.AnalyzeFolds(context.Background(), st.Folds, trace.DefaultPerceptibleThreshold, nil)
	if g, w := report.FormatAll(got), report.FormatAll(want); g != w {
		t.Errorf("shipped folds analyze differently:\n--- got ---\n%s\n--- want ---\n%s", g, w)
	}
}

// TestShardJobTracesAllBad: a shard whose every file fails to load is
// legitimate partial state — itemized file health, zero folds — not
// a failed job.
func TestShardJobTracesAllBad(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "junk.lila")
	if err := os.WriteFile(bad, []byte("not a trace at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Workers: 1})
	job, err := s.Submit(JobSpec{Kind: "shard", Dir: dir, Files: []string{bad}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, job.ID, StateDone)
	data, _ := s.ShardStateBytes(job.ID)
	st, err := DecodeShardState(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Folds) != 0 {
		t.Errorf("folds = %d, want none", len(st.Folds))
	}
	if st.Health == nil || len(st.Health.Files) != 1 || st.Health.Files[0].Path != bad {
		t.Errorf("health = %+v, want the bad file itemized", st.Health)
	}
}

func TestShardValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Runner: okRunner})
	if _, err := s.Submit(JobSpec{Kind: "shard"}); err == nil {
		t.Error("shard with neither apps nor files accepted")
	}
	if _, err := s.Submit(JobSpec{Kind: "shard", Apps: []string{"CrosswordSage"}, Files: []string{"x"}}); err == nil {
		t.Error("shard with both apps and files accepted")
	}
	if _, err := s.Submit(JobSpec{Kind: "shard", Apps: []string{"NoSuchApp"}}); err == nil {
		t.Error("shard with unknown app accepted")
	}
}

// TestShardStateDamage: every way the framing can be damaged decodes
// to ErrBadShardState, never to a silently wrong state.
func TestShardStateDamage(t *testing.T) {
	st := &ShardState{Health: &report.StudyHealth{SessionsSkipped: 3}}
	data, err := EncodeShardState(st)
	if err != nil {
		t.Fatal(err)
	}
	if back, err := DecodeShardState(data); err != nil || back.Health.SessionsSkipped != 3 {
		t.Fatalf("clean round trip: %v, %+v", err, back)
	}
	damage := map[string][]byte{
		"short":        data[:10],
		"truncated":    data[:len(data)-4],
		"bad magic":    append([]byte("WRONGMAG"), data[8:]...),
		"payload flip": flipByte(data, len(data)-1),
		"sum flip":     flipByte(data, 12),
		"old worker":   oldShardState(t, st.Health),
		"LAGSHRD4":     withMagic(data, "LAGSHRD4"),
		"LAGSHRD5":     withMagic(data, "LAGSHRD5"),
	}
	for name, d := range damage {
		if _, err := DecodeShardState(d); !errors.Is(err, ErrBadShardState) {
			t.Errorf("%s: err = %v, want ErrBadShardState", name, err)
		}
	}
}

// oldShardState frames health as a worker of the previous framing
// version ships a trace shard's state: magic "LAGSHRD3", a valid
// checksum, a count of zero suite frames, and a gob tail holding the
// ledger and no folds.
func oldShardState(t *testing.T, health *report.StudyHealth) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(make([]byte, len("LAGSHRD3")+sha256.Size))
	buf.WriteByte(0) // uvarint(0) frames
	if err := gob.NewEncoder(&buf).Encode(struct {
		Health *report.StudyHealth
		Folds  []*engine.AppFold
	}{health, nil}); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	copy(out, "LAGSHRD3")
	sum := sha256.Sum256(out[len("LAGSHRD3")+sha256.Size:])
	copy(out[len("LAGSHRD3"):], sum[:])
	return out
}

// withMagic reframes data under another magic with its checksum
// intact: a "LAGSHRD4" or "LAGSHRD5" worker framed its state as
// today's, but its patterns' lag was a float summary that today's
// pattern wire would decode as zero lag, or its session tallies had no
// ID, which today's would decode as session 0.
func withMagic(data []byte, magic string) []byte {
	out := append([]byte(nil), data...)
	copy(out, magic)
	return out
}

func flipByte(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 0x40
	return out
}

// TestHealthzDrainSequence is the satellite's drain test: /healthz
// answers 200 while serving and flips to 503 with a "draining" body
// the moment SIGTERM-style shutdown begins, while in-flight work
// finishes.
func TestHealthzDrainSequence(t *testing.T) {
	release := make(chan struct{})
	s := newTestServer(t, Config{
		Workers: 1,
		Runner: func(ctx context.Context, spec JobSpec) (*report.StudyResult, error) {
			<-release
			return okRunner(ctx, spec)
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	getHealth := func() (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	if code, body := getHealth(); code != http.StatusOK || body["ok"] != true || body["draining"] != false {
		t.Fatalf("pre-drain healthz = %d %v, want 200 ok", code, body)
	}

	job, err := s.Submit(JobSpec{Kind: "study"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, job.ID, StateRunning)

	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	// The drain flag flips before the in-flight job is done.
	deadline := time.Now().Add(5 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	code, body := getHealth()
	if code != http.StatusServiceUnavailable {
		t.Errorf("mid-drain healthz status = %d, want 503", code)
	}
	if body["draining"] != true || body["ok"] != false {
		t.Errorf("mid-drain healthz body = %v, want draining", body)
	}

	close(release)
	<-done
	if st, _ := s.Status(job.ID); st.State != StateDone {
		t.Errorf("in-flight job = %s, want done (drain waits for it)", st.State)
	}
	// Still 503 after the drain completes: the process is going away.
	if code, _ := getHealth(); code != http.StatusServiceUnavailable {
		t.Errorf("post-drain healthz status = %d, want 503", code)
	}
}

// TestBeginDrainBeforeShutdown: lagd flips the health signal with
// BeginDrain before closing its HTTP listener — /healthz must answer
// 503 and Submit must shed with ErrDraining from that moment, while
// the real Shutdown still drains normally afterwards.
func TestBeginDrainBeforeShutdown(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.BeginDrain()
	s.BeginDrain() // idempotent

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after BeginDrain = %d, want 503", resp.StatusCode)
	}
	if _, err := s.Submit(JobSpec{Kind: "study"}); !errors.Is(err, ErrDraining) {
		t.Errorf("Submit after BeginDrain err = %v, want ErrDraining", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown after BeginDrain: %v", err)
	}
	if _, err := s.Shutdown(ctx); err == nil {
		t.Error("second Shutdown succeeded, want already-shut-down error")
	}
}
