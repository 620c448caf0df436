package treebuild_test

import (
	"bytes"
	"testing"

	"lagalyzer/internal/apps"
	"lagalyzer/internal/sim"
	"lagalyzer/internal/trace"
	"lagalyzer/internal/treebuild"
)

// teedSuite simulates two sessions of p, teeing each record stream
// into a trace writer, and returns the built suite with the frame of
// its teed traces.
func teedSuite(t *testing.T, p *sim.Profile, short bool) (*trace.Suite, []byte) {
	t.Helper()
	suite := &trace.Suite{App: p.Name}
	var traces [][]byte
	for id := 0; id < 2; id++ {
		cfg := sim.Config{Profile: p, SessionID: id, Seed: 42, SessionSeconds: 20, MaterializeShort: short}
		var buf bytes.Buffer
		w := treebuild.NewTraceWriter(&buf, cfg.Header())
		s, err := sim.RunTee(cfg, treebuild.Options{}, w)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		suite.Sessions = append(suite.Sessions, s)
		traces = append(traces, buf.Bytes())
	}
	return suite, treebuild.AppendTraces(nil, p.Name, traces)
}

// TestTeedFrameMatchesAppendSuite: the frame of the simulator's teed
// record streams is byte-identical to the frame AppendSuite encodes
// from the built sessions, for every catalog app, so checkpoint stores
// written either way share payload digests.
func TestTeedFrameMatchesAppendSuite(t *testing.T) {
	for _, p := range apps.Catalog() {
		suite, teed := teedSuite(t, p, false)
		want, err := treebuild.AppendSuite(nil, suite)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(teed, want) {
			t.Errorf("%s: teed frame (%d bytes) differs from AppendSuite (%d bytes)", p.Name, len(teed), len(want))
		}
	}
}

// TestTeedFrameKeepsShortEpisodes: with materialized short episodes
// the teed stream keeps the sub-threshold dispatches a built session
// has dropped, so its frame is larger, yet it decodes strictly to the
// same sessions.
func TestTeedFrameKeepsShortEpisodes(t *testing.T) {
	for _, p := range []*sim.Profile{apps.JEdit(), apps.NetBeans()} {
		t.Run(p.Name, func(t *testing.T) {
			suite, teed := teedSuite(t, p, true)
			flat, err := treebuild.AppendSuite(nil, suite)
			if err != nil {
				t.Fatal(err)
			}
			if len(teed) <= len(flat) {
				t.Errorf("teed frame %d bytes, want more than the flattened %d", len(teed), len(flat))
			}
			app, traces, rest, err := treebuild.SplitSuite(teed)
			if err != nil || len(rest) != 0 || app != p.Name {
				t.Fatalf("SplitSuite: %v (app %q, %d trailing bytes)", err, app, len(rest))
			}
			got := &trace.Suite{App: app}
			for i, v2 := range traces {
				s, err := treebuild.DecodeSession(v2, treebuild.Options{})
				if err != nil {
					t.Fatalf("session %d: %v", i, err)
				}
				got.Sessions = append(got.Sessions, s)
			}
			round, err := treebuild.AppendSuite(nil, got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(round, flat) {
				t.Error("teed frame decodes to different sessions")
			}
			for i, s := range got.Sessions {
				if want := suite.Sessions[i].ShortCount; s.ShortCount != want {
					t.Errorf("session %d: short count %d, want %d", i, s.ShortCount, want)
				}
			}
		})
	}
}
