package lagalyzer

// End-to-end tests of the command-line tools: build the real binaries
// and drive the lilasim → lagalyzer → lagreport workflow through their
// public interfaces.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lagalyzer/internal/faultinject"
)

// buildTools compiles the three commands once per test binary run.
var buildTools = sync.OnceValues(func() (map[string]string, error) {
	dir, err := os.MkdirTemp("", "lagalyzer-tools")
	if err != nil {
		return nil, err
	}
	tools := map[string]string{}
	for _, name := range []string{"lilasim", "lagalyzer", "lagreport"} {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
		if out, err := cmd.CombinedOutput(); err != nil {
			return nil, &buildError{name: name, out: string(out), err: err}
		}
		tools[name] = bin
	}
	return tools, nil
})

type buildError struct {
	name string
	out  string
	err  error
}

func (e *buildError) Error() string { return e.name + ": " + e.err.Error() + "\n" + e.out }

func tool(t *testing.T, name string) string {
	t.Helper()
	tools, err := buildTools()
	if err != nil {
		t.Fatalf("building tools: %v", err)
	}
	return tools[name]
}

func run(t *testing.T, bin string, stdin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCLIWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "cs.lila")

	// lilasim: list profiles, then generate a trace (v2, the default).
	list := run(t, tool(t, "lilasim"), "", "-list")
	if !strings.Contains(list, "NetBeans") || !strings.Contains(list, "45367") {
		t.Errorf("lilasim -list output:\n%s", list)
	}
	gen := run(t, tool(t, "lilasim"), "",
		"-app", "CrosswordSage", "-seconds", "20", "-seed", "3", "-o", traceFile)
	if !strings.Contains(gen, "wrote") {
		t.Errorf("lilasim output: %s", gen)
	}
	if fi, err := os.Stat(traceFile); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file missing: %v", err)
	}

	// lagalyzer stats includes the threshold sweep.
	stats := run(t, tool(t, "lagalyzer"), "", "stats", traceFile)
	for _, want := range []string{"CrosswordSage/0", "triggers (all)", "threshold sensitivity", ">=225.0ms"} {
		if !strings.Contains(stats, want) {
			t.Errorf("stats output missing %q:\n%s", want, stats)
		}
	}

	// patterns table with GC column.
	pats := run(t, tool(t, "lagalyzer"), "", "patterns", "-n", "5", "-sort", "total", traceFile)
	for _, want := range []string{"patterns:", "gc%", "dispatch("} {
		if !strings.Contains(pats, want) {
			t.Errorf("patterns output missing %q:\n%s", want, pats)
		}
	}

	// sketch to SVG.
	svgFile := filepath.Join(dir, "ep.svg")
	run(t, tool(t, "lagalyzer"), "", "sketch", "-svg", svgFile, traceFile)
	svg, err := os.ReadFile(svgFile)
	if err != nil || !strings.Contains(string(svg), "<svg") {
		t.Errorf("sketch SVG: %v", err)
	}

	// timeline (text form).
	tl := run(t, tool(t, "lagalyzer"), "", "timeline", traceFile)
	if !strings.Contains(tl, "CrosswordSage/0") || !strings.Contains(tl, "gc") {
		t.Errorf("timeline output:\n%s", tl)
	}

	// streaming statistics.
	st := run(t, tool(t, "lagalyzer"), "", "stream", traceFile)
	if !strings.Contains(st, "episodes") || !strings.Contains(st, "runnable threads") {
		t.Errorf("stream output:\n%s", st)
	}

	// interactive browser driven by a scripted session.
	script := "list 3\nsel 0\neps\nsketch\nnext\nquit\n"
	br := run(t, tool(t, "lagalyzer"), script, "browse", traceFile)
	for _, want := range []string{"patterns:", "episode(s)", "dispatch"} {
		if !strings.Contains(br, want) {
			t.Errorf("browse output missing %q", want)
		}
	}

	// diff between two seeds.
	trace2 := filepath.Join(dir, "cs2.lila")
	run(t, tool(t, "lilasim"), "", "-app", "CrosswordSage", "-seconds", "20", "-seed", "8", "-o", trace2)
	df := run(t, tool(t, "lagalyzer"), "", "diff", traceFile, trace2)
	if !strings.Contains(df, "patterns:") || !strings.Contains(df, "perceptible episodes:") {
		t.Errorf("diff output:\n%s", df)
	}
}

// TestCLIStatsStreamGolden pins `lagalyzer stats` (sequential and at
// the default -jobs) and `lagalyzer stream` stdout byte for byte on a
// seeded v2 trace, and checks that stats and stream over two traces
// each print the same at 1, 2, and 8 workers. The stream's
// decode-throughput lines carry wall clock and are masked.
func TestCLIStatsStreamGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	lagBin := tool(t, "lagalyzer")
	traceFile := filepath.Join(t.TempDir(), "cs.lila")
	run(t, tool(t, "lilasim"), "",
		"-app", "CrosswordSage", "-seconds", "60", "-seed", "3", "-format", "v2", "-o", traceFile)

	stdout := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(lagBin, args...).Output()
		if err != nil {
			t.Fatalf("lagalyzer %v: %v", args, err)
		}
		return string(out)
	}
	golden := func(name string) string {
		t.Helper()
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	stats := golden("stats_crosswordsage.golden")
	for _, args := range [][]string{{"-jobs", "1", "stats", traceFile}, {"stats", traceFile}} {
		if got := stdout(args...); got != stats {
			t.Errorf("lagalyzer %v:\n%s\nwant:\n%s", args, got, stats)
		}
	}
	second := filepath.Join(t.TempDir(), "cs1.lila")
	run(t, tool(t, "lilasim"), "",
		"-app", "CrosswordSage", "-session", "1", "-seconds", "60", "-seed", "3", "-format", "v2", "-compress", "-o", second)
	two := stdout("-jobs", "1", "stats", traceFile, second)
	if !strings.HasPrefix(two, "CrosswordSage/0: ") || !strings.Contains(two, "\nCrosswordSage/1: ") {
		t.Errorf("lagalyzer stats over two traces:\n%s", two)
	}
	for _, jobs := range []string{"2", "8"} {
		if got := stdout("-jobs", jobs, "stats", traceFile, second); got != two {
			t.Errorf("lagalyzer -jobs %s stats over two traces:\n%s\nwant (-jobs 1):\n%s", jobs, got, two)
		}
	}

	masked := func(args ...string) string {
		t.Helper()
		lines := strings.Split(stdout(args...), "\n")
		for i, l := range lines {
			if strings.HasPrefix(l, "  decoded ") {
				lines[i] = "  decoded (timing masked)"
			}
		}
		return strings.Join(lines, "\n")
	}
	if got, want := masked("stream", traceFile), golden("stream_crosswordsage.golden"); got != want {
		t.Errorf("lagalyzer stream:\n%s\nwant:\n%s", got, want)
	}
	twoStream := masked("-jobs", "1", "stream", traceFile, second)
	if !strings.HasPrefix(twoStream, "CrosswordSage/0: ") || !strings.Contains(twoStream, "\nCrosswordSage/1: ") {
		t.Errorf("lagalyzer stream over two traces:\n%s", twoStream)
	}
	for _, jobs := range []string{"2", "8"} {
		if got := masked("-jobs", jobs, "stream", traceFile, second); got != twoStream {
			t.Errorf("lagalyzer -jobs %s stream over two traces:\n%s\nwant (-jobs 1):\n%s", jobs, got, twoStream)
		}
	}
}

// TestCLIPatternsDiffGolden pins `lagalyzer patterns -n 0` under each
// sort key and with -perceptible, and `lagalyzer diff -n 0`, over two
// seeded CrosswordSage sessions (the second DEFLATE-compressed), byte
// for byte at one and at four workers.
func TestCLIPatternsDiffGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	lagBin := tool(t, "lagalyzer")
	dir := t.TempDir()
	cs0, cs1 := filepath.Join(dir, "cs0.lila"), filepath.Join(dir, "cs1.lila")
	run(t, tool(t, "lilasim"), "",
		"-app", "CrosswordSage", "-seconds", "60", "-seed", "3", "-format", "v2", "-o", cs0)
	run(t, tool(t, "lilasim"), "",
		"-app", "CrosswordSage", "-session", "1", "-seconds", "60", "-seed", "3", "-format", "v2", "-compress", "-o", cs1)

	cases := []struct {
		golden string
		args   []string
	}{
		{"patterns_crosswordsage_count.golden", []string{"patterns", "-n", "0", "-sort", "count", cs0, cs1}},
		{"patterns_crosswordsage_total.golden", []string{"patterns", "-n", "0", "-sort", "total", cs0, cs1}},
		{"patterns_crosswordsage_max.golden", []string{"patterns", "-n", "0", "-sort", "max", cs0, cs1}},
		{"patterns_crosswordsage_avg.golden", []string{"patterns", "-n", "0", "-sort", "avg", cs0, cs1}},
		{"patterns_crosswordsage_perceptible.golden", []string{"patterns", "-n", "0", "-perceptible", cs0, cs1}},
		{"diff_crosswordsage.golden", []string{"diff", "-n", "0", cs0, cs1}},
	}
	for _, c := range cases {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		for _, jobs := range []string{"1", "4"} {
			args := append([]string{"-jobs", jobs}, c.args...)
			got, err := exec.Command(lagBin, args...).Output()
			if err != nil {
				t.Fatalf("lagalyzer %v: %v", args, err)
			}
			if string(got) != string(want) {
				t.Errorf("lagalyzer %v:\n%s\nwant (%s):\n%s", args, got, c.golden, want)
			}
		}
	}
}

func TestCLILagreport(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()

	// Scaled-down simulated study with figure output.
	out := run(t, tool(t, "lagreport"), "",
		"-sessions", "1", "-seconds", "20", "-only", "table3,findings", "-out", dir)
	for _, want := range []string{"Table III", "fig5.jmol.output", "report.html"} {
		if !strings.Contains(out, want) {
			t.Errorf("lagreport output missing %q", want)
		}
	}
	for _, name := range []string{"figure3_pattern_cdf.svg", "experiments.md", "report.html"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing artifact %s: %v", name, err)
		}
	}

	// Trace-directory mode.
	traceDir := t.TempDir()
	run(t, tool(t, "lilasim"), "", "-app", "JEdit", "-seconds", "15", "-o", filepath.Join(traceDir, "a.lila"))
	out = run(t, tool(t, "lagreport"), "", "-traces", traceDir, "-only", "table3")
	if !strings.Contains(out, "JEdit") {
		t.Errorf("trace-dir lagreport output:\n%s", out)
	}
}

// TestCLIObservability exercises the telemetry surface end to end:
// runmeta.json next to the figures, progress lines with an ETA, the
// phase summary, the debug server banner, and the profiling flags.
func TestCLIObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()

	out := run(t, tool(t, "lagreport"), "",
		"-sessions", "1", "-seconds", "20", "-only", "table3", "-out", dir,
		"-progress", "-phases", "-debug-addr", "127.0.0.1:0")
	for _, want := range []string{
		"runmeta.json",                 // artifact list mentions the manifest
		"report: ",                     // progress lines
		"eta",                          // with an ETA
		"== phase summary ==", "study", // span summary on stderr
		"debug server on http://127.0.0.1:", // live endpoint banner
	} {
		if !strings.Contains(out, want) {
			t.Errorf("lagreport observability output missing %q:\n%s", want, out)
		}
	}

	meta, err := os.ReadFile(filepath.Join(dir, "runmeta.json"))
	if err != nil {
		t.Fatalf("runmeta.json: %v", err)
	}
	for _, want := range []string{
		`"tool": "lagreport"`,
		`"go_version"`,
		`"gomaxprocs"`,
		`"phases"`,
		`"path": "study"`,
		`"metrics"`,
		`"engine_episodes_total"`,
		`"report_sessions_total"`,
		`"sessions": "1"`, // explicitly set flags are recorded
	} {
		if !strings.Contains(string(meta), want) {
			t.Errorf("runmeta.json missing %s:\n%s", want, meta)
		}
	}

	// Profiling flags on lilasim and lagalyzer.
	cpuOut := filepath.Join(dir, "cpu.out")
	memOut := filepath.Join(dir, "mem.out")
	traceFile := filepath.Join(dir, "p.lila")
	run(t, tool(t, "lilasim"), "", "-cpuprofile", cpuOut,
		"-app", "CrosswordSage", "-seconds", "15", "-o", traceFile)
	if fi, err := os.Stat(cpuOut); err != nil || fi.Size() == 0 {
		t.Errorf("lilasim -cpuprofile produced nothing: %v", err)
	}
	st := run(t, tool(t, "lagalyzer"), "", "-memprofile", memOut, "stream", traceFile)
	if !strings.Contains(st, "records/s") || !strings.Contains(st, "MB/s") {
		t.Errorf("lagalyzer stream missing throughput line:\n%s", st)
	}
	if fi, err := os.Stat(memOut); err != nil || fi.Size() == 0 {
		t.Errorf("lagalyzer -memprofile produced nothing: %v", err)
	}
}

// runCode runs a built tool and returns its exit code and combined
// output, failing only when the process could not be started at all.
func runCode(t *testing.T, bin string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
		}
		return ee.ExitCode(), string(out)
	}
	return 0, string(out)
}

// TestCLIFaultTolerance drives the robustness surface end to end: a
// trace directory holding one intact, one truncated, and one
// bit-flipped file must still produce a study. By default the damaged
// files are skipped and lagreport exits 3 (partial success); -strict
// aborts on the first bad file; -salvage decodes past the damage and
// keeps every session, reporting what was lost in the Health section
// and runmeta.json.
func TestCLIFaultTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	traceDir := t.TempDir()
	intact := filepath.Join(traceDir, "a_jedit.lila")
	truncated := filepath.Join(traceDir, "b_trunc.lila")
	flipped := filepath.Join(traceDir, "c_flip.lila")
	run(t, tool(t, "lilasim"), "", "-app", "JEdit", "-seconds", "15", "-format", "v2", "-o", intact)
	run(t, tool(t, "lilasim"), "", "-app", "CrosswordSage", "-seconds", "15", "-format", "v2", "-o", truncated)
	run(t, tool(t, "lilasim"), "", "-app", "CrosswordSage", "-session", "1", "-seconds", "15", "-format", "v2", "-o", flipped)

	damage := func(path string, f func([]byte) []byte) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, f(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	damage(truncated, func(b []byte) []byte { return faultinject.TruncateFrac(b, 0.55) })
	damage(flipped, func(b []byte) []byte { return faultinject.FlipBits(b, 7, 12, 64, len(b)) })

	// Default: damaged files are skipped, the intact session is
	// analyzed, and the partial loss surfaces as exit code 3.
	code, out := runCode(t, tool(t, "lagreport"), "-traces", traceDir, "-only", "table3")
	if code != 3 {
		t.Errorf("default over damaged dir: exit %d, want 3\n%s", code, out)
	}
	for _, want := range []string{"JEdit", "Health: inputs lost or degraded", "partial results"} {
		if !strings.Contains(out, want) {
			t.Errorf("default output missing %q:\n%s", want, out)
		}
	}

	// -strict restores the historical fail-fast contract.
	code, out = runCode(t, tool(t, "lagreport"), "-traces", traceDir, "-only", "table3", "-strict")
	if code != 1 {
		t.Errorf("-strict over damaged dir: exit %d, want 1\n%s", code, out)
	}

	// -salvage keeps all three sessions: damage is worked around block
	// by block, so no whole unit is lost and the run succeeds.
	outDir := t.TempDir()
	code, out = runCode(t, tool(t, "lagreport"), "-traces", traceDir, "-only", "table3", "-salvage", "-out", outDir)
	if code != 0 {
		t.Errorf("-salvage over damaged dir: exit %d, want 0\n%s", code, out)
	}
	for _, want := range []string{"JEdit", "CrosswordSage", "Health: inputs lost or degraded", "salvage"} {
		if !strings.Contains(out, want) {
			t.Errorf("-salvage output missing %q:\n%s", want, out)
		}
	}
	meta, err := os.ReadFile(filepath.Join(outDir, "runmeta.json"))
	if err != nil {
		t.Fatalf("runmeta.json: %v", err)
	}
	for _, want := range []string{`"health"`, `"salvage"`, `"lila_records_salvaged_total"`} {
		if !strings.Contains(string(meta), want) {
			t.Errorf("runmeta.json missing %s", want)
		}
	}
	page, err := os.ReadFile(filepath.Join(outDir, "report.html"))
	if err != nil {
		t.Fatalf("report.html: %v", err)
	}
	if !strings.Contains(string(page), "Health — inputs lost or degraded") {
		t.Error("HTML report missing the Health section")
	}

	// lagalyzer: strict by default (exit 1), salvages with -salvage
	// (exit 0, damage notes on stderr), and skips unrecoverable files
	// under -salvage with exit 3.
	code, _ = runCode(t, tool(t, "lagalyzer"), "stats", truncated)
	if code != 1 {
		t.Errorf("lagalyzer stats on truncated trace: exit %d, want 1", code)
	}
	code, out = runCode(t, tool(t, "lagalyzer"), "-salvage", "stats", truncated)
	if code != 0 {
		t.Errorf("lagalyzer -salvage stats on truncated trace: exit %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "CrosswordSage/0") || !strings.Contains(out, "salvage") {
		t.Errorf("lagalyzer -salvage output:\n%s", out)
	}
	// Each damaged file's salvage note itemizes the loss: v2 drops
	// whole blocks, and a note that counts nothing would hide it.
	itemized := regexp.MustCompile(`salvage: kept \d+, dropped (\d+) records, skipped (\d+) bytes`)
	for _, path := range []string{truncated, flipped} {
		_, out := runCode(t, tool(t, "lagalyzer"), "-salvage", "stats", path)
		m := itemized.FindStringSubmatch(out)
		if m == nil || (m[1] == "0" && m[2] == "0") {
			t.Errorf("%s: salvage note itemizes no loss:\n%s", filepath.Base(path), out)
		}
	}
	junk := filepath.Join(t.TempDir(), "junk.lila")
	if err := os.WriteFile(junk, []byte("not a trace at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out = runCode(t, tool(t, "lagalyzer"), "-salvage", "stats", junk, intact)
	if code != 3 {
		t.Errorf("lagalyzer -salvage with unrecoverable file: exit %d, want 3\n%s", code, out)
	}
	if !strings.Contains(out, "skipped") || !strings.Contains(out, "JEdit/0") {
		t.Errorf("lagalyzer -salvage partial output:\n%s", out)
	}
}

// TestCLICheckpointKillResume is the crash-safety golden test: a study
// SIGKILLed mid-run and then rerun with the same flags must resume from
// the -out/.checkpoint store and produce byte-identical final output to
// an uninterrupted run — same stdout (modulo the elapsed time), same
// figures, same experiments.md, same report.html, and an equivalent
// runmeta.json once the volatile fields (timestamps, phase timings,
// metric values, the differing -out flag) are stripped.
func TestCLICheckpointKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := tool(t, "lagreport")
	studyArgs := func(out string) []string {
		return []string{"-sessions", "2", "-seconds", "60", "-seed", "7", "-out", out}
	}

	// Reference: the same study, uninterrupted.
	dirA := t.TempDir()
	outA := run(t, bin, "", studyArgs(dirA)...)

	// Victim: start the study, wait for the first app checkpoint to
	// land, then SIGKILL — no signal handler runs, no flush happens.
	dirB := t.TempDir()
	victim := exec.Command(bin, studyArgs(dirB)...)
	if err := victim.Start(); err != nil {
		t.Fatalf("starting victim run: %v", err)
	}
	manifest := filepath.Join(dirB, ".checkpoint", "manifest.json")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if data, err := os.ReadFile(manifest); err == nil && strings.Contains(string(data), `"digest"`) {
			break
		}
		if time.Now().After(deadline) {
			victim.Process.Kill()
			victim.Wait()
			t.Fatal("no checkpoint appeared within 30s")
		}
		time.Sleep(time.Millisecond)
	}
	if err := victim.Process.Kill(); err != nil {
		t.Logf("kill after completion (study finished before the signal): %v", err)
	}
	victim.Wait()

	// Resume: rerunning with the same flags must pick up the surviving
	// checkpoints and converge on the reference output.
	outB := run(t, bin, "", studyArgs(dirB)...)

	// The elapsed time and the -out directory are the only run-specific
	// parts of the study's stdout; everything else must match exactly.
	normalize := func(out string) string {
		lines := strings.Split(out, "\n")
		for i, ln := range lines {
			if strings.HasPrefix(ln, "analyzed ") {
				if cut := strings.LastIndex(ln, " in "); cut >= 0 {
					lines[i] = ln[:cut]
				}
			}
			if strings.HasPrefix(ln, "wrote ") {
				if cut := strings.LastIndex(ln, " to "); cut >= 0 {
					lines[i] = ln[:cut]
				}
			}
		}
		return strings.Join(lines, "\n")
	}
	if a, b := normalize(outA), normalize(outB); a != b {
		t.Errorf("resumed stdout differs from uninterrupted run:\n--- uninterrupted ---\n%s\n--- resumed ---\n%s", a, b)
	}

	// Every artifact except runmeta.json must be byte-identical.
	entries, err := os.ReadDir(dirA)
	if err != nil {
		t.Fatal(err)
	}
	compared := 0
	for _, e := range entries {
		if e.IsDir() || e.Name() == "runmeta.json" {
			continue
		}
		wantBytes, err := os.ReadFile(filepath.Join(dirA, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		gotBytes, err := os.ReadFile(filepath.Join(dirB, e.Name()))
		if err != nil {
			t.Errorf("resumed run missing artifact %s: %v", e.Name(), err)
			continue
		}
		if !bytes.Equal(wantBytes, gotBytes) {
			t.Errorf("artifact %s differs between uninterrupted and resumed runs", e.Name())
		}
		compared++
	}
	if compared < 3 { // at least the SVGs, experiments.md, and report.html
		t.Errorf("compared only %d artifacts, expected the full figure set", compared)
	}

	// runmeta.json: equivalent after dropping the volatile fields.
	loadMeta := func(dir string) map[string]any {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, "runmeta.json"))
		if err != nil {
			t.Fatalf("runmeta.json: %v", err)
		}
		var m map[string]any
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatalf("runmeta.json: %v", err)
		}
		return m
	}
	metaA, metaB := loadMeta(dirA), loadMeta(dirB)

	// The resumed run must have loaded at least one checkpoint instead
	// of recomputing everything from scratch.
	hits := func(m map[string]any) float64 {
		counters, _ := m["metrics"].(map[string]any)["counters"].(map[string]any)
		v, _ := counters["checkpoint_hits_total"].(float64)
		return v
	}
	if got := hits(metaB); got < 1 {
		t.Errorf("resumed run checkpoint_hits_total = %v, want >= 1", got)
	}

	for _, volatile := range []string{"started", "wall_clock", "phases", "metrics", "flags"} {
		delete(metaA, volatile)
		delete(metaB, volatile)
	}
	stableA, _ := json.Marshal(metaA)
	stableB, _ := json.Marshal(metaB)
	if !bytes.Equal(stableA, stableB) {
		t.Errorf("runmeta.json stable fields differ:\n%s\nvs\n%s", stableA, stableB)
	}
}

// TestCLIConvertGolden pins the convert round trip end to end: a study
// recorded as text traces, converted to v2 with `lagalyzer convert`,
// must analyze to byte-identical reports. This is the CI golden step for
// format independence at the tool level (the unit-level twin lives in
// internal/report).
func TestCLIConvertGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	simBin, lagBin, repBin := tool(t, "lilasim"), tool(t, "lagalyzer"), tool(t, "lagreport")

	// A small text study: two apps, two sessions each.
	textDir := t.TempDir()
	for _, app := range []string{"CrosswordSage", "GanttProject"} {
		for id := 0; id < 2; id++ {
			run(t, simBin, "", "-app", app, "-session", strconv.Itoa(id),
				"-seed", "11", "-seconds", "15", "-format", "text",
				"-o", filepath.Join(textDir, app+"_"+strconv.Itoa(id)+".lila"))
		}
	}

	// Baseline: analyze the text study.
	outA := t.TempDir()
	stdoutA := run(t, repBin, "", "-traces", textDir, "-jobs", "1", "-out", outA)

	// Convert everything to v2 (convert -out keeps base names, so the
	// sorted ingest order matches the text directory's).
	v2Dir := t.TempDir()
	traces, err := filepath.Glob(filepath.Join(textDir, "*.lila"))
	if err != nil || len(traces) != 4 {
		t.Fatalf("globbing text traces: %v (%d files)", err, len(traces))
	}
	run(t, lagBin, "", append([]string{"convert", "-to", "v2", "-out", v2Dir}, traces...)...)
	for _, p := range traces {
		converted := filepath.Join(v2Dir, filepath.Base(p))
		magic := make([]byte, 5)
		f, err := os.Open(converted)
		if err != nil {
			t.Fatalf("converted trace missing: %v", err)
		}
		if _, err := f.Read(magic); err != nil || string(magic) != "LILA\x02" {
			t.Errorf("%s: not a v2 trace (magic %q, err %v)", converted, magic, err)
		}
		f.Close()
	}

	// Analyze the converted study.
	outB := t.TempDir()
	stdoutB := run(t, repBin, "", "-traces", v2Dir, "-jobs", "1", "-out", outB)

	// Stdout must match up to the run-specific suffixes (elapsed time,
	// output directory).
	normalize := func(out string) string {
		lines := strings.Split(out, "\n")
		for i, ln := range lines {
			if strings.HasPrefix(ln, "analyzed ") {
				if cut := strings.LastIndex(ln, " in "); cut >= 0 {
					lines[i] = ln[:cut]
				}
			}
			if strings.HasPrefix(ln, "wrote ") {
				if cut := strings.LastIndex(ln, " to "); cut >= 0 {
					lines[i] = ln[:cut]
				}
			}
		}
		return strings.Join(lines, "\n")
	}
	if a, b := normalize(stdoutA), normalize(stdoutB); a != b {
		t.Errorf("v2 study stdout differs from text baseline:\n--- text ---\n%s\n--- v2 ---\n%s", a, b)
	}

	// Every artifact except runmeta.json must be byte-identical.
	entries, err := os.ReadDir(outA)
	if err != nil {
		t.Fatal(err)
	}
	compared := 0
	for _, e := range entries {
		if e.IsDir() || e.Name() == "runmeta.json" {
			continue
		}
		wantBytes, err := os.ReadFile(filepath.Join(outA, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		gotBytes, err := os.ReadFile(filepath.Join(outB, e.Name()))
		if err != nil {
			t.Errorf("v2 run missing artifact %s: %v", e.Name(), err)
			continue
		}
		if !bytes.Equal(wantBytes, gotBytes) {
			t.Errorf("artifact %s differs between text and v2 studies", e.Name())
		}
		compared++
	}
	if compared < 3 { // at least the SVGs, experiments.md, and report.html
		t.Errorf("compared only %d artifacts, expected the full figure set", compared)
	}

	// runmeta.json: equivalent after dropping the volatile fields.
	loadMeta := func(dir string) map[string]any {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, "runmeta.json"))
		if err != nil {
			t.Fatalf("runmeta.json: %v", err)
		}
		var m map[string]any
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatalf("runmeta.json: %v", err)
		}
		return m
	}
	metaA, metaB := loadMeta(outA), loadMeta(outB)
	for _, volatile := range []string{"started", "wall_clock", "phases", "metrics", "flags"} {
		delete(metaA, volatile)
		delete(metaB, volatile)
	}
	stableA, _ := json.Marshal(metaA)
	stableB, _ := json.Marshal(metaB)
	if !bytes.Equal(stableA, stableB) {
		t.Errorf("runmeta.json stable fields differ:\n%s\nvs\n%s", stableA, stableB)
	}

	// Round trip a v2 trace back to text: the records, and so the
	// text bytes, must come back unchanged.
	backDir := t.TempDir()
	v2Trace := filepath.Join(v2Dir, "CrosswordSage_0.lila")
	run(t, lagBin, "", "convert", "-to", "text", "-out", backDir, v2Trace)
	orig, err := os.ReadFile(filepath.Join(textDir, "CrosswordSage_0.lila"))
	if err != nil {
		t.Fatal(err)
	}
	back, err := os.ReadFile(filepath.Join(backDir, "CrosswordSage_0.lila"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, back) {
		t.Error("text -> v2 -> text round trip changed the trace")
	}
	statsText := run(t, lagBin, "", "stats", filepath.Join(textDir, "CrosswordSage_0.lila"))
	statsBack := run(t, lagBin, "", "stats", filepath.Join(backDir, "CrosswordSage_0.lila"))
	if statsText != statsBack {
		t.Errorf("stats after text->v2->text round trip differ:\n--- text ---\n%s\n--- round trip ---\n%s",
			statsText, statsBack)
	}
}

// TestCLISelfProfile is the self-profiling round trip golden: run the
// tools with -self-profile, then feed each emitted LiLa v2 self-trace
// back through `lagalyzer report` — LagAlyzer analyzing its own run.
// The loop must close: nonzero episodes, pattern tables, and rendered
// SVG sketches, all with exit code 0.
func TestCLISelfProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	simBin, lagBin, repBin := tool(t, "lilasim"), tool(t, "lagalyzer"), tool(t, "lagreport")
	dir := t.TempDir()

	// lilasim with -self-profile: the generated trace must be
	// byte-identical to an unprofiled run (self-profiling must never
	// perturb output), and the self-trace must be a v2 file.
	plain := filepath.Join(dir, "plain.lila")
	profiled := filepath.Join(dir, "profiled.lila")
	simSelf := filepath.Join(dir, "lilasim-self.lila")
	run(t, simBin, "", "-app", "CrosswordSage", "-seconds", "15", "-seed", "3", "-format", "v2", "-o", plain)
	out := run(t, simBin, "", "-app", "CrosswordSage", "-seconds", "15", "-seed", "3", "-format", "v2",
		"-o", profiled, "-self-profile", simSelf)
	if !strings.Contains(out, "wrote self-trace") {
		t.Errorf("lilasim output missing self-trace line:\n%s", out)
	}
	a, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(profiled)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("-self-profile perturbed lilasim's generated trace")
	}

	// lagreport with -self-profile on a one-app study.
	repSelf := filepath.Join(dir, "lagreport-self.lila")
	outDir := filepath.Join(dir, "figs")
	out = run(t, repBin, "", "-sessions", "1", "-seconds", "20", "-only", "table3",
		"-out", outDir, "-self-profile", repSelf)
	if !strings.Contains(out, "analyze with: lagalyzer report") {
		t.Errorf("lagreport output missing the self-trace hint:\n%s", out)
	}
	meta, err := os.ReadFile(filepath.Join(outDir, "runmeta.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(meta), `"self_trace"`) {
		t.Error("runmeta.json missing the self_trace field")
	}

	// Close the loop: analyze both self-traces with `lagalyzer report`,
	// itself running under -self-profile (profiling the profiler's
	// profiler), and render sketches.
	sketchDir := filepath.Join(dir, "sketches")
	metaSelf := filepath.Join(dir, "report-self.lila")
	out = run(t, lagBin, "", "-self-profile", metaSelf, "report", "-out", sketchDir, repSelf, simSelf)
	for _, want := range []string{"lagreport", "lilasim", "Table III", "Figure 3"} {
		if !strings.Contains(out, want) {
			t.Errorf("lagalyzer report output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "analyzed 0 traced episodes") {
		t.Errorf("self-trace analysis found no episodes:\n%s", out)
	}
	svgs, err := filepath.Glob(filepath.Join(sketchDir, "*.svg"))
	if err != nil || len(svgs) == 0 {
		t.Errorf("report -out rendered no sketches: %v", err)
	}
	for _, p := range svgs {
		data, err := os.ReadFile(p)
		if err != nil || !strings.Contains(string(data), "<svg") {
			t.Errorf("%s: not an SVG (%v)", p, err)
		}
	}

	// And once more around the loop: the meta self-trace analyzes too.
	out = run(t, lagBin, "", "report", metaSelf)
	if !strings.Contains(out, "lagalyzer-report") || strings.Contains(out, "analyzed 0 traced episodes") {
		t.Errorf("meta self-trace analysis:\n%s", out)
	}
}

func TestCLIErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	// Unknown app fails with a useful message and nonzero status.
	cmd := exec.Command(tool(t, "lilasim"), "-app", "Photoshop")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatal("unknown app accepted")
	}
	if !strings.Contains(string(out), "unknown application") {
		t.Errorf("error output: %s", out)
	}
	// lagalyzer with a missing file.
	cmd = exec.Command(tool(t, "lagalyzer"), "stats", "/nonexistent/trace.lila")
	if err := cmd.Run(); err == nil {
		t.Fatal("missing trace accepted")
	}
	// lagalyzer with an unknown subcommand exits 2.
	cmd = exec.Command(tool(t, "lagalyzer"), "frobnicate")
	if err := cmd.Run(); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
}

// TestExamples runs every example program end to end; each must exit
// zero and print its headline output.
func TestExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("runs example binaries")
	}
	cases := []struct {
		dir  string
		want string
	}{
		{"quickstart", "patterns:"},
		{"animation", "achieved frame rate"},
		{"backgroundload", "avg runnable threads"},
		{"gcpressure", "perceptible lag"},
		{"customanalysis", "paint nesting depth"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.dir, func(t *testing.T) {
			t.Parallel()
			bin := filepath.Join(t.TempDir(), tc.dir)
			build := exec.Command("go", "build", "-o", bin, "./examples/"+tc.dir)
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("build: %v\n%s", err, out)
			}
			cmd := exec.Command(bin)
			cmd.Dir = t.TempDir() // quickstart writes an SVG into its cwd
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("run: %v\n%s", err, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Errorf("output missing %q:\n%s", tc.want, out)
			}
		})
	}
}

// TestCLILilasimStreamGolden pins lilasim's output in every encoding
// to SHA-256 digests taken when lilasim still collected the whole
// record stream before encoding it: streaming the simulator straight
// into the writer must not change a byte.
func TestCLILilasimStreamGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-format", "text"}, "80736144a03d04a625883d8b113a37480cb513b77c8baa52b0b7afbb2c89021b"},
		{[]string{"-format", "v2"}, "c18aa220a22507868b7f5cddf0459abc1b16b9fe34046c7626e213a52aa9b92c"},
		{[]string{"-format", "v2", "-compress"}, "15ccd7fae6f49ac5d2df0b29794181c63e39debf0e1e3c08ea76b8378c105c51"},
	} {
		path := filepath.Join(dir, "jedit.lila")
		args := append([]string{"-app", "JEdit", "-seconds", "30", "-seed", "7", "-session", "1",
			"-materialize-short", "-o", path}, c.args...)
		run(t, tool(t, "lilasim"), "", args...)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != c.want {
			t.Errorf("lilasim %v: sha256 %s, want %s", c.args, got, c.want)
		}
	}
}

// TestCLIReportHTMLGolden pins report.html from lagreport -out, which
// embeds the figures the run renders once for its SVG files, to the
// digest of the page taken when FormatHTML rendered its own copy.
func TestCLIReportHTMLGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	out := t.TempDir()
	run(t, tool(t, "lagreport"), "", "-sessions", "1", "-seconds", "20", "-only", "table3", "-out", out)
	page, err := os.ReadFile(filepath.Join(out, "report.html"))
	if err != nil {
		t.Fatal(err)
	}
	const want = "d0a408edfc5d7301ea4d5cba4d51a1c4ca9bdbd22014a0365695ae678f1a68fc"
	if got := fmt.Sprintf("%x", sha256.Sum256(page)); got != want {
		t.Errorf("report.html sha256 %s, want %s", got, want)
	}
}
