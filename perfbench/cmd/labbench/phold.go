package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"tenways/internal/obs"
	"tenways/internal/pdes"
)

// phold is the PHOLD benchmark model as a pdes.Workload: every rank starts
// with a fixed number of jobs; handling a job forwards it, with probability
// remote, to a uniformly chosen other rank, otherwise back to the same
// rank, after the lookahead plus an exponential delay of the same mean. It
// is the sparse, asynchronous traffic of arXiv:2205.04190 — most windows
// move thousands of small cross-partition batches — where the idle wave
// moves almost none.
//
// Every random draw is a hash of the seed and the handled event's key
// (Dst, Src, Seq, Step), never a stream shared between ranks, so results
// do not depend on partitioning or worker count.
type phold struct {
	ranks, jobs int
	look, end   float64
	remote      float64
	seed        uint64

	// Per-rank state, written only by the rank's own handler: events
	// handled and a running hash of their keys in handling order.
	count []uint64
	sum   []uint64
}

func newPHOLD(ranks, jobs int, look, end, remote float64, seed uint64) *phold {
	return &phold{ranks: ranks, jobs: jobs, look: look, end: end, remote: remote, seed: seed,
		count: make([]uint64, ranks), sum: make([]uint64, ranks)}
}

// reset clears the per-rank state so the model can run again.
func (w *phold) reset() {
	clear(w.count)
	clear(w.sum)
}

func (w *phold) Ranks() int { return w.ranks }

func (w *phold) Init(s pdes.Sched, rank int) {
	for j := 0; j < w.jobs; j++ {
		h := mix(w.seed ^ mix(uint64(rank)<<20|uint64(j)))
		s.At(rank, w.look*expDraw(h), 0, 0, 0)
	}
}

func (w *phold) Handle(s pdes.Sched, ev pdes.Event) {
	r := int(ev.Dst)
	key := mix(uint64(uint32(ev.Src))<<32 | uint64(ev.Seq) ^ math.Float64bits(ev.Time))
	w.count[r]++
	w.sum[r] = mix(w.sum[r] ^ key)
	if ev.Time >= w.end {
		return
	}
	h := mix(w.seed ^ key ^ uint64(r)<<40 ^ uint64(uint32(ev.Step)))
	dst := r
	if unit(h) < w.remote {
		h = mix(h)
		dst = int(h % uint64(w.ranks-1))
		if dst >= r {
			dst++
		}
	}
	s.At(dst, ev.Time+w.look+w.look*expDraw(mix(h^0x9e3779b97f4a7c15)), 0, ev.Step+1, 0)
}

// checksum folds every rank's count and hash, in rank order.
func (w *phold) checksum() uint64 {
	var c uint64
	for r := range w.count {
		c = mix(c ^ w.count[r] ^ mix(w.sum[r]))
	}
	return c
}

// mix is the splitmix64 finaliser.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// unit maps a hash to (0, 1).
func unit(h uint64) float64 { return (float64(h>>11) + 0.5) / (1 << 53) }

// expDraw is a unit-mean exponential variate from a hash.
func expDraw(h uint64) float64 { return -math.Log(unit(h)) }

// PHOLD shape: 2^14 ranks with 4 jobs each, half the hops remote, run to
// a virtual end time of pholdWindows lookaheads. Each window then carries
// about ranks*jobs/2 events, so one run is ~2M events over ~64 windows.
const (
	pholdRanks   = 1 << 14
	pholdJobs    = 4
	pholdRemote  = 0.5
	pholdLook    = 1.0
	pholdWindows = 64
)

// pholdRun is one pdes.Run's observable result.
type pholdRun struct {
	res  pdes.Result
	sum  uint64
	wall time.Duration
}

// matches reports whether two runs committed the same events with the
// same per-rank results.
func (r pholdRun) matches(ref pholdRun) bool {
	return r.res.Events == ref.res.Events && r.res.VirtualTime == ref.res.VirtualTime && r.sum == ref.sum
}

func runModel(w *phold, cfg pdes.Config) (pholdRun, error) {
	w.reset()
	t0 := time.Now()
	res, err := pdes.Run(w, cfg)
	wall := time.Since(t0)
	if err != nil {
		return pholdRun{}, fmt.Errorf("phold: %w", err)
	}
	return pholdRun{res: res, sum: w.checksum(), wall: wall}, nil
}

// runPHOLD is the pdes-phold workload: one caller runs PHOLD through
// pdes.Run at the engine defaults (8 partitions, min(GOMAXPROCS, 8)
// workers, conservative sync) back to back for the measurement time. An
// operation is one pdes.Run; ops_per_s counts committed events. Every
// run's event count and checksum must match a Partitions: 1, Workers: 1
// reference run of the same seed.
func runPHOLD(ctx context.Context, p params) (*outcome, error) {
	tr := p.tr
	out := newOutcome()
	// Set-up builds the model and runs the Partitions: 1, Workers: 1
	// reference every timed run is checked against.
	type prepared struct {
		w   *phold
		ref pholdRun
	}
	prepare := func() (prepared, error) {
		w := newPHOLD(pholdRanks, pholdJobs, pholdLook, pholdWindows*pholdLook, pholdRemote, p.seed)
		ref, err := runModel(w, pdes.Config{Partitions: 1, Workers: 1, Lookahead: pholdLook})
		return prepared{w, ref}, err
	}
	prep, setup, err := timeSetup(prepare)
	if err != nil {
		return nil, err
	}
	w, ref := prep.w, prep.ref

	root := tr.begin("workload pdes-phold", 0, 0, 0)
	var reg *obs.Registry
	if tr != nil {
		reg = obs.NewRegistry()
	}
	var walls []float64
	var events uint64
	var busy time.Duration
	var last pholdRun
	alloc0 := allocBytes()
	start := time.Now()
	for out.attempted == 0 || time.Since(start) < p.seconds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		call := tr.begin("pdes.Run", root.s.ID, uint64(out.attempted+1), 0)
		run, err := runModel(w, pdes.Config{Lookahead: pholdLook, Obs: reg})
		call.end()
		out.attempted++
		if err != nil || !run.matches(ref) {
			out.failed++
			continue
		}
		last = run
		walls = append(walls, ms(run.wall))
		events += run.res.Events
		busy += run.wall
	}
	alloc := allocBytes() - alloc0
	root.end()
	_, after, err := timeSetup(prepare)
	if err != nil {
		return nil, err
	}
	out.values["setup_s"] = median(append(setup, after...))

	lat := summarize(walls)
	out.values["alloc_mb"] = float64(alloc) / 1e6 / float64(out.attempted)
	out.values["ops_per_s"] = perSecond(float64(events), busy)
	out.latency(lat)
	out.context["events_per_run"] = fmt.Sprint(ref.res.Events)
	out.context["workers"] = fmt.Sprint(last.res.Workers)
	if tr != nil && last.res.Windows > 0 {
		if err := pholdLayers(out, w, last, reg, lat); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// pholdLayers fills the engine's per-layer metrics for the traced run from
// the last default run's Result, the pdes.* counters folded over all runs,
// and a few extra Workers: 1 runs for the parallel speedup.
func pholdLayers(out *outcome, w *phold, last pholdRun, reg *obs.Registry, lat latency) error {
	r := last.res
	runs := float64(out.attempted)
	snap := reg.Snapshot()
	out.values["pdes.windows"] = float64(r.Windows)
	out.values["pdes.stall_frac"] = float64(r.Stalls) / float64(r.Windows*uint64(r.Partitions))
	out.values["pdes.cross_frac"] = float64(r.CrossEvents) / float64(r.Events)
	out.values["pdes.events_per_window"] = float64(r.Events) / float64(r.Windows)
	out.values["pdes.cross_batches"] = float64(snap.Counter("pdes.cross_batches")) / runs
	out.values["pdes.chunk_allocs"] = float64(snap.Counter("pdes.chunk_allocs")) / runs
	out.values["pdes.ladder_respreads"] = float64(snap.Counter("pdes.ladder_respreads")) / runs
	out.values["pdes.ns_per_event"] = lat.p50 * 1e6 / float64(r.Events)
	const serialRuns = 3
	serial := make([]float64, 0, serialRuns)
	for i := 0; i < serialRuns; i++ {
		run, err := runModel(w, pdes.Config{Lookahead: pholdLook, Workers: 1})
		if err != nil {
			return err
		}
		serial = append(serial, ms(run.wall))
	}
	out.values["pdes.speedup_w1"] = median(serial) / lat.p50
	return nil
}
