package dist

import (
	"context"
	"strings"
	"testing"
	"time"

	"lagalyzer/internal/obs"
	"lagalyzer/internal/serve"
)

// distCounters is the exported metric schema for distributed studies;
// this test pins the names in both exposition formats so dashboards
// keyed on them cannot silently break.
var distCounters = []string{
	"dist_shards_total",
	"dist_shard_retries_total",
	"dist_hedges_total",
	"dist_workers_ejected_total",
	"dist_shards_degraded_total",
}

func TestDistMetricsSchema(t *testing.T) {
	snap := obs.Default().Snapshot()
	text := snap.Format()
	prom := obs.Default().FormatProm()
	for _, name := range distCounters {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("snapshot has no counter %s", name)
		}
		if !strings.Contains(text, "counter "+name+" ") {
			t.Errorf("text snapshot omits %s:\n%s", name, text)
		}
		if !strings.Contains(prom, "# TYPE "+name+" counter") {
			t.Errorf("prometheus exposition omits the TYPE line for %s", name)
		}
		if !strings.Contains(prom, "\n"+name+" ") {
			t.Errorf("prometheus exposition has no sample for %s", name)
		}
	}
}

// TestDistMetricsCount: the counters move with the events they name.
func TestDistMetricsCount(t *testing.T) {
	before := obs.Default().Snapshot().Counters
	c, err := New(Options{
		Workers:         []string{"http://127.0.0.1:1"}, // nothing listens
		MaxAttempts:     2,
		BackoffBase:     time.Nanosecond,
		EjectAfter:      1,
		EjectCooldown:   time.Hour,
		NoLocalFallback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := serve.JobSpec{Kind: "shard", Apps: []string{"CrosswordSage"}, Sessions: 1}
	_, _, rerr := c.runShard(context.Background(), "probe", labelHome("probe"), spec)
	if rerr == nil {
		t.Fatal("shard against a dead address succeeded")
	}
	after := obs.Default().Snapshot().Counters
	if d := after["dist_shards_total"] - before["dist_shards_total"]; d != 1 {
		t.Errorf("dist_shards_total moved by %d, want 1", d)
	}
	if d := after["dist_workers_ejected_total"] - before["dist_workers_ejected_total"]; d != 1 {
		t.Errorf("dist_workers_ejected_total moved by %d, want 1", d)
	}
}
