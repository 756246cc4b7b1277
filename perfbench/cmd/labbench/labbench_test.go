package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"os"
	"runtime"
	"slices"
	"testing"

	"tenways/internal/core"
	"tenways/internal/obs"
	"tenways/internal/pdes"
)

func TestTailPctLeavesTenSamplesBeyond(t *testing.T) {
	for n := 11; n <= 5000; n++ {
		p, ok := tailPct(n)
		if !ok {
			t.Fatalf("n=%d: no tail percentile", n)
		}
		beyond := func(p int) int { return n - (p*n+99)/100 }
		if beyond(p) < 10 {
			t.Fatalf("n=%d: p%d leaves %d samples beyond", n, p, beyond(p))
		}
		if p < 99 && beyond(p+1) >= 10 {
			t.Fatalf("n=%d: p%d is not the highest; p%d leaves %d beyond", n, p, p+1, beyond(p+1))
		}
	}
	for n, want := range map[int]int{1000: 99, 43: 76, 11: 9, 100: 90} {
		if p, _ := tailPct(n); p != want {
			t.Errorf("tailPct(%d) = %d, want %d", n, p, want)
		}
	}
	if _, ok := tailPct(10); ok {
		t.Error("tailPct(10) found a percentile with ten samples beyond")
	}
}

func TestSummarizeCountsFailuresInTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	l := summarize(slices.Clone(xs))
	if l.tailPct != 99 || l.tail != 990 || l.p50 != 500.5 {
		t.Fatalf("summary %+v, want p99=990 p50=500.5", l)
	}
	for i := 0; i < 10; i++ {
		xs[i] = math.Inf(1) // a failed request
	}
	if l := summarize(xs); l.tail != 1000 {
		t.Fatalf("ten failures: tail %g, want 1000 (the 990th-ranked sample)", l.tail)
	}
}

func TestPHOLDIdenticalAcrossPartitionsAndWorkers(t *testing.T) {
	w := newPHOLD(1<<10, pholdJobs, pholdLook, 16*pholdLook, pholdRemote, 7)
	ref, err := runModel(w, pdes.Config{Partitions: 1, Workers: 1, Lookahead: pholdLook})
	if err != nil {
		t.Fatal(err)
	}
	if ref.res.Events < 1<<14 {
		t.Fatalf("reference committed only %d events", ref.res.Events)
	}
	for _, parts := range []int{1, 2, 8} {
		for _, workers := range []int{1, runtime.NumCPU()} {
			got, err := runModel(w, pdes.Config{Partitions: parts, Workers: workers, Lookahead: pholdLook})
			if err != nil {
				t.Fatal(err)
			}
			if !got.matches(ref) {
				t.Errorf("partitions %d workers %d: events %d sum %x t %g, reference %d %x %g",
					parts, workers, got.res.Events, got.sum, got.res.VirtualTime,
					ref.res.Events, ref.sum, ref.res.VirtualTime)
			}
			if parts > 1 && got.res.CrossEvents == 0 {
				t.Errorf("partitions %d: no cross-partition events", parts)
			}
		}
	}
	other, err := runModel(newPHOLD(1<<10, pholdJobs, pholdLook, 16*pholdLook, pholdRemote, 8), pdes.Config{Lookahead: pholdLook})
	if err != nil {
		t.Fatal(err)
	}
	if other.sum == ref.sum {
		t.Error("seeds 7 and 8 gave the same checksum")
	}
	corrupt := ref
	corrupt.sum ^= 1
	if corrupt.matches(ref) {
		t.Error("a corrupted checksum matched the reference")
	}
}

func TestCheckSuiteRejectsCorruptOutput(t *testing.T) {
	lab := core.NewLab()
	results, err := lab.RunAll(context.Background(), core.Config{Seed: 1}, core.RunOptions{IDs: []string{"T2"}})
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if err := checkSuite(r, suiteRefs[1]); err != nil {
		t.Fatalf("clean T2 rejected: %v", err)
	}
	bad := r
	table := *r.Output.Table
	table.Rows = slices.Clone(table.Rows)
	table.Rows[0] = slices.Clone(table.Rows[0])
	table.Rows[0][1] += "0"
	bad.Output.Table = &table
	if checkSuite(bad, suiteRefs[1]) == nil {
		t.Error("corrupted T2 table accepted")
	}
	failed := r
	failed.Err = errors.New("boom")
	if checkSuite(failed, suiteRefs[1]) == nil {
		t.Error("failed experiment accepted")
	}
	reg := obs.NewRegistry()
	reg.Counter("lint.unsuppressed").Inc()
	if checkSuite(core.RunResult{ID: "T11", Metrics: reg.Snapshot()}, suiteRefs[1]) == nil {
		t.Error("T11 with an unsuppressed finding accepted")
	}
	t13 := core.Output{Table: &table}
	table.Headers = []string{"package", "now"}
	table.Rows = [][]string{{"total", "1"}}
	if checkSuite(core.RunResult{ID: "T13", Output: t13}, suiteRefs[1]) == nil {
		t.Error("T13 with a live finding accepted")
	}
}

func TestCheckDaemonRejectsCorruptResponses(t *testing.T) {
	o, err := core.NewLab().Run("F29", core.Config{Quick: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	body := func(o core.Output) []byte {
		data, err := json.Marshal(map[string]any{"table": o.Table, "figure": o.Figure, "cached": true})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	// A rerun's measured columns differ; only the deterministic ones count.
	rerun, err := core.NewLab().Run("F29", core.Config{Quick: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// corrupt returns o with the cell under header col of the first row
	// changed.
	corrupt := func(o core.Output, col string) core.Output {
		bad := *o.Table
		bad.Rows = slices.Clone(bad.Rows)
		bad.Rows[0] = slices.Clone(bad.Rows[0])
		c := slices.Index(bad.Headers, col)
		if c < 0 {
			t.Fatalf("%s has no %q column: %v", o.Table.ID, col, bad.Headers)
		}
		bad.Rows[0][c] += "0"
		return core.Output{Table: &bad, Figure: o.Figure}
	}
	// T7's speedup column is simulated, so unlike F29's it is checked.
	t7, err := core.NewLab().Run("T7", core.Config{Quick: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		id   string
		rec  record
		fail bool
	}{
		{"F29", record{status: http.StatusOK, body: body(o)}, false},
		{"F29", record{status: http.StatusOK, body: body(rerun)}, false},
		{"F29", record{status: http.StatusOK, body: body(corrupt(o, "events"))}, true},
		{"F29", record{status: http.StatusOK, body: []byte("{")}, true},
		{"F29", record{status: http.StatusTooManyRequests}, true},
		{"F29", record{err: errors.New("connection reset")}, true},
		{"T7", record{status: http.StatusOK, body: body(t7)}, false},
		{"T7", record{status: http.StatusOK, body: body(corrupt(t7, "speedup"))}, true},
	}
	reqs := make([]request, len(cases))
	recs := make([]record, len(cases))
	wantFailed := 0
	for i, c := range cases {
		reqs[i], recs[i] = request{id: c.id, seed: 5}, c.rec
		if c.fail {
			wantFailed++
		}
	}
	out := newOutcome()
	if err := checkDaemon(reqs, recs, out); err != nil {
		t.Fatal(err)
	}
	if out.attempted != len(cases) || out.failed != wantFailed {
		t.Fatalf("attempted %d failed %d, want %d and %d", out.attempted, out.failed, len(cases), wantFailed)
	}
	for i, c := range cases {
		if failed := recs[i].err != nil || recs[i].status != http.StatusOK; failed != c.fail {
			t.Errorf("case %d (%s): status %d err %v, want failure %v", i, c.id, recs[i].status, recs[i].err, c.fail)
		}
	}
	if !recs[0].cached {
		t.Error("cached flag not decoded")
	}
}

func TestScheduleIsSeededAndFixedInComposition(t *testing.T) {
	a, b := schedule(3, 100, 2e9), schedule(3, 100, 2e9)
	if !slices.Equal(a, b) {
		t.Fatal("same seed, different schedules")
	}
	c := schedule(4, 100, 2e9)
	count := func(rs []request) map[string]int {
		m := make(map[string]int)
		for _, r := range rs {
			if r.fresh {
				m["fresh"]++
				m["fresh "+r.id]++
			}
			m[r.id]++
		}
		return m
	}
	ca, cc := count(a), count(c)
	if len(a) != 200 || ca["fresh"] != 20 {
		t.Fatalf("%d requests, %d fresh; want 200 and 20", len(a), ca["fresh"])
	}
	for id, n := range ca {
		if cc[id] != n {
			t.Errorf("%s: %d requests at seed 3, %d at seed 4", id, n, cc[id])
		}
	}
	if slices.Equal(a, c) {
		t.Error("seeds 3 and 4 gave the same schedule")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root in
// step with the workloads and metric names this command reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, command has %v", names, workloadNames())
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, command reports %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, command %+v", kind, i, g, m)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer())
}

// TestDaemonRoundTrip drives a short traced open loop through the real
// daemon, exercising the client pool, the middleware and the lab decorator
// concurrently (run it under -race).
func TestDaemonRoundTrip(t *testing.T) {
	tr := newTracer()
	d, err := startDaemon(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := d.warm(ctx, 1); err != nil {
		t.Fatal(err)
	}
	reqs := schedule(1, 200, 5e8)
	recs, lates := d.fire(ctx, reqs, 2, tr)
	if err := d.stop(); err != nil {
		t.Fatal(err)
	}
	out := newOutcome()
	if err := checkDaemon(reqs, recs, out); err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 || out.attempted != len(reqs) || len(lates) != len(reqs) {
		t.Fatalf("attempted %d failed %d of %d: %v", out.attempted, out.failed, len(reqs), out.context)
	}
	fresh := 0
	for _, r := range reqs {
		if r.fresh {
			fresh++
		}
	}
	if runs := d.lab.runs.Load(); runs != int64(len(daemonIDs)*poolSeeds+fresh) {
		t.Errorf("lab ran %d times, want %d warm-up runs plus %d fresh", runs, len(daemonIDs)*poolSeeds, fresh)
	}
	spans := tr.finished()
	if self := selfTimes(spans, "serve.handler"); len(self) != len(daemonIDs)*poolSeeds+len(reqs) {
		t.Errorf("%d handler spans, want %d", len(self), len(daemonIDs)*poolSeeds+len(reqs))
	}
}
