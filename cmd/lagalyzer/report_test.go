package main

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"lagalyzer/internal/report"
	"lagalyzer/internal/trace"
)

// TestReportGroupsInArgumentOrder pins `lagalyzer report`'s grouping:
// one application per app name in first-seen argument order (not name
// order), its sessions in argument order, rendered exactly as the
// held-session analysis of those suites renders, at any -jobs.
func TestReportGroupsInArgumentOrder(t *testing.T) {
	paths := append(writeV2Traces(t, "Jmol", "CrosswordSage"), writeV2Traces(t, "Jmol")...)

	var suites []*trace.Suite
	for _, l := range report.LoadFiles(context.Background(), paths, report.LoadOptions{Strict: true}, nil) {
		if len(suites) > 0 && suites[0].App == l.Session.App {
			suites[0].Sessions = append(suites[0].Sessions, l.Session)
			continue
		}
		suites = append(suites, &trace.Suite{App: l.Session.App, Sessions: []*trace.Session{l.Session}})
	}
	res := report.AnalyzeSuitesContext(context.Background(), suites, 0, nil)
	want := report.FormatAll(res) +
		fmt.Sprintf("analyzed %d traced episodes across %d application(s)\n", res.TotalEpisodes(), len(res.Apps))
	if len(suites) != 2 || suites[0].App != "Jmol" || len(suites[0].Sessions) != 2 {
		t.Fatalf("reference grouping: %d suites, first %s", len(suites), suites[0].App)
	}
	table3 := want[strings.Index(want, "Table III"):]
	if j, c := strings.Index(table3, "\nJmol "), strings.Index(table3, "\nCrosswordSage "); j < 0 || c < j {
		t.Fatalf("reference Table III does not list Jmol first:\n%s", table3)
	}
	for _, jobs := range []int{1, 8} {
		got, err := capture(t, runReport, jobs, paths)
		if err != nil {
			t.Fatalf("report at -jobs %d: %v", jobs, err)
		}
		if got != want {
			t.Errorf("report at -jobs %d:\n%s\nwant:\n%s", jobs, got, want)
		}
	}
}
