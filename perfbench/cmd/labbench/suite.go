package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"tenways/internal/core"
)

// The reference hashes cover lab seeds 1 to suiteSeeds+1. Workload seed n
// runs the suite at lab seed 1 + n mod suiteSeeds, except the held-out
// seed, which runs lab seed suiteSeeds+1, an input no other workload seed
// reaches.
const (
	suiteSeeds  = 4
	heldOutSeed = 1001
)

func suiteLabSeed(seed uint64) uint64 {
	if seed == heldOutSeed {
		return suiteSeeds + 1
	}
	return 1 + seed%suiteSeeds
}

// Set-up for the suite is building the lab, which takes microseconds: too
// short to time steadily on its own. It is timed before the pass in labReps
// batches of labBatch builds, each batch after a full collection and small
// enough that no collection lands inside it; the median passes over the
// first batches, which fault in fresh heap pages. (Batches after the pass
// run about 30% slower on the heap it leaves, so they are not mixed in.)
const (
	labReps  = 50
	labBatch = 200
)

// timeLabBuilds returns the per-build seconds of labReps batches of
// labBatch core.NewLab calls, and the last lab built.
func timeLabBuilds() (*core.Lab, []float64) {
	var lab *core.Lab
	times := make([]float64, 0, labReps)
	for i := 0; i < labReps; i++ {
		runtime.GC()
		t0 := time.Now()
		for j := 0; j < labBatch; j++ {
			lab = core.NewLab()
		}
		times = append(times, time.Since(t0).Seconds()/labBatch)
	}
	return lab, times
}

// Experiment groups whose wall times the traced run sums per substrate.
var (
	memIDs      = []string{"F1", "F9", "F17", "F20"}
	pdesIDs     = []string{"F28", "F29", "F30"}
	lintIDs     = []string{"T11", "T13"}
	selfprofIDs = []string{"T10", "F27"}
)

// runSuiteFull is the suite-full workload: one closed-loop caller runs
// Lab.RunAll once over every experiment in full mode with one worker, as a
// user regenerating the paper's tables does. The pass takes longer than any
// sensible run time, and a second pass in the same process would skip the
// memoised lint scan, so a run is exactly one pass: one operation, whose
// wall time p50_ms reports.
func runSuiteFull(ctx context.Context, p params) (*outcome, error) {
	labSeed := suiteLabSeed(p.seed)
	refs, ok := suiteRefs[labSeed]
	if !ok {
		return nil, fmt.Errorf("no suite references for lab seed %d", labSeed)
	}
	lab, setup := timeLabBuilds()
	out := newOutcome()
	out.values["setup_s"] = median(setup)
	out.context["lab_seed"] = fmt.Sprint(labSeed)

	tr := p.tr
	root := tr.begin("workload suite-full", 0, 0, 0)
	call := tr.begin("Lab.RunAll", root.s.ID, 1, 0)
	alloc0 := allocBytes()
	t0 := time.Now()
	results, _ := lab.RunAll(ctx, core.Config{Seed: labSeed}, core.RunOptions{
		Workers: 1,
		OnResult: func(r core.RunResult) {
			if tr == nil {
				return
			}
			// Workers: 1 runs experiments back to back, and OnResult fires
			// as each lands, so the span ends now.
			end := time.Since(tr.origin)
			tr.record(span{Name: "experiment " + r.ID, ID: tr.next.Add(1), Parent: call.s.ID,
				Req: 1, Start: end - r.Wall, Finish: end})
		},
	})
	wall := time.Since(t0)
	alloc := allocBytes() - alloc0
	call.end()
	root.end()

	// RunAll's aggregate error names the failed experiments, which
	// checkSuite counts one by one.
	layer := make(map[string]float64)
	for _, r := range results {
		out.attempted++
		if err := checkSuite(r, refs); err != nil {
			out.failed++
			out.context["error."+r.ID] = err.Error()
		}
		addSuiteLayers(layer, r)
	}
	out.values["alloc_mb"] = float64(alloc) / 1e6
	out.values["ops_per_s"] = 1 / wall.Seconds()
	out.latency(summarize([]float64{ms(wall)}))
	if tr != nil {
		for name, v := range layer {
			out.values[name] = v
		}
		finishSuiteLayers(out.values)
	}
	return out, nil
}

// checkSuite verifies one experiment result: it must succeed; T11 and T13
// (which scan the repository's own source) must report zero unsuppressed
// findings; every other deterministic output must hash to the reference
// recorded for the lab seed. Measured experiments (host wall-clock cells)
// only need to succeed.
func checkSuite(r core.RunResult, refs map[string]string) error {
	if r.Err != nil {
		return r.Err
	}
	switch {
	case r.ID == "T11":
		if n := r.Metrics.Counter("lint.unsuppressed"); n != 0 {
			return fmt.Errorf("T11 reports %d unsuppressed findings", n)
		}
		return nil
	case r.ID == "T13":
		return checkT13(r.Output)
	case r.Measured:
		return nil
	}
	want, ok := refs[r.ID]
	if !ok {
		return fmt.Errorf("%s has no reference hash", r.ID)
	}
	got, err := outputHash(r.Output)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("%s output hash %s, reference %s", r.ID, got, want)
	}
	return nil
}

// checkT13 requires T13's total row to show zero live findings.
func checkT13(o core.Output) error {
	t := o.Table
	if t == nil {
		return fmt.Errorf("T13 has no table")
	}
	col := -1
	for i, h := range t.Headers {
		if h == "now" {
			col = i
		}
	}
	for _, row := range t.Rows {
		if len(row) > col && col >= 0 && row[0] == "total" {
			if row[col] != "0" {
				return fmt.Errorf("T13 reports %s live findings", row[col])
			}
			return nil
		}
	}
	return fmt.Errorf("T13 table has no total row with a now column")
}

// outputHash fingerprints an experiment's table and figure as wastelab
// prints them. The rendering rounds figure values, as the published
// tables do, so it ignores last-bit differences in the raw floats, which
// some experiments (F17, F18) do not reproduce from run to run.
func outputHash(o core.Output) (string, error) {
	h := sha256.New()
	if err := o.Render(h); err != nil {
		return "", fmt.Errorf("hash output: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// addSuiteLayers accumulates one experiment's per-layer figures: its own
// wall time, and the substrate sums its metrics snapshot attributes it to.
func addSuiteLayers(layer map[string]float64, r core.RunResult) {
	wall := r.Wall.Seconds()
	layer["exp."+r.ID+"_s"] += wall
	in := func(ids []string) bool {
		for _, id := range ids {
			if id == r.ID {
				return true
			}
		}
		return false
	}
	if in(memIDs) {
		layer["mem.wall_s"] += wall
	}
	if n := r.Metrics.Counter("sim.events"); n > 0 {
		layer["pgas.wall_s"] += wall
		layer["sim.events"] += float64(n)
	}
	if in(pdesIDs) {
		layer["pdes.suite_wall_s"] += wall
		layer["pdes.suite_events"] += float64(r.Metrics.Counter("pdes.events"))
	}
	if n := r.Metrics.Counter("tune.evaluations"); n > 0 {
		layer["tune.wall_s"] += wall
		layer["tune.evaluations"] += float64(n)
	}
	if in(lintIDs) {
		layer["lint.wall_s"] += wall
	}
	if in(selfprofIDs) {
		layer["core.selfprof_s"] += wall
	}
}

// finishSuiteLayers turns the accumulated sums into the per-event and
// per-evaluation ratios.
func finishSuiteLayers(v map[string]float64) {
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	v["sim.ns_per_event"] = ratio(v["pgas.wall_s"]*1e9, v["sim.events"])
	v["pdes.suite_ns_per_event"] = ratio(v["pdes.suite_wall_s"]*1e9, v["pdes.suite_events"])
	v["tune.ms_per_eval"] = ratio(v["tune.wall_s"]*1e3, v["tune.evaluations"])
	delete(v, "pdes.suite_events")
}

// printSuiteRefs runs the full suite at every reference lab seed and
// writes refs.go's table: the output hash of every experiment checkSuite
// compares by hash. Run it only on a commit whose tables are known good.
func printSuiteRefs(w io.Writer) error {
	lab := core.NewLab()
	var b strings.Builder
	b.WriteString("package main\n\n// suiteRefs holds the suite-full reference output hashes by lab seed,\n" +
		"// printed by labbench --print-refs (full mode, petascale2009).\n" +
		"var suiteRefs = map[uint64]map[string]string{\n")
	for seed := uint64(1); seed <= suiteSeeds+1; seed++ {
		results, err := lab.RunAll(context.Background(), core.Config{Seed: seed}, core.RunOptions{Workers: 2})
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "\t%d: {\n", seed)
		for _, r := range results {
			if r.Measured || r.ID == "T11" || r.ID == "T13" {
				continue
			}
			h, err := outputHash(r.Output)
			if err != nil {
				return err
			}
			fmt.Fprintf(&b, "\t\t%q: %q,\n", r.ID, h)
		}
		b.WriteString("\t},\n")
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
