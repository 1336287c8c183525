// Command perfbench is graphrep's end-to-end benchmark: one client replays a
// fixed, seeded list of /query and /insert requests in a closed loop against
// repserve's handler, served in-process on loopback from an engine reopened
// from its saved corpus and index files. Because every run of a seed starts
// from the same files and sends the same requests in the same order, the
// engine's memo, cascade tiers and session cache evolve identically, and the
// work counts it prints repeat exactly.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload refine --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it replays the ops in pass after pass, each on a fresh
// engine, for --seconds of measured time and prints the end-to-end metrics
// as medians over the passes, scaled to a reference host speed (speed.go);
// with --trace 1 it replays
// the ops three times (untraced over HTTP, traced over HTTP, and directly
// against the engine) and prints the per-layer metrics. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
// Workload definitions and the pinned answer digests live in
// workloads.json.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"graphrep"
)

//go:embed workloads.json
var workloadsJSON []byte

// config is workloads.json: the parameters each workload runs with, the
// documentation of what it measures, and the pinned answer digests.
type config struct {
	DefaultSeed int64 `json:"default_seed"`
	// CorpusSeed generates every workload's corpus. It is fixed rather than
	// taken from --seed: query cost depends mostly on the corpus's family
	// sizes, and with a seeded corpus refine's latency spread 22–29% (IQR
	// over median) across ten seeds, wider than any usable bound.
	CorpusSeed   int64               `json:"corpus_seed"`
	SetupRepeats int                 `json:"setup_repeats"`
	Workloads    map[string]workload `json:"workloads"`
	Pinned       []pin               `json:"pinned_digests"`
}

// setupProbeRuns is how many probe runs bracket each timed setup, before
// and after it.
const setupProbeRuns = 10

type workload struct {
	Shards int `json:"shards"`
	Corpus int `json:"corpus"`
	// OpsPerPass is the length of the seeded op list every pass replays.
	OpsPerPass int `json:"ops_per_pass"`
}

// pin is the answer digest a workload must print for one seed.
type pin struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Digest   string `json:"digest"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	if err := json.Unmarshal(workloadsJSON, &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: workloads.json:", err)
		os.Exit(1)
	}
	name := flag.String("workload", "", "workload to run (see workloads.json)")
	seed := flag.Int64("seed", cfg.DefaultSeed, "seed for the corpus, specs, θ, k and insert stream")
	seconds := flag.Int("seconds", 10, "measured time; an untraced run makes passes until their wall time reaches it")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	work := flag.String("work", filepath.Join(".bench_build", "tmp"), "directory for saved files and span output")
	flag.Parse()
	w, ok := cfg.Workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (refine, explore, ingest), --seconds ≥ 1, --trace 0|1\n")
		os.Exit(2)
	}
	r := &runner{cfg: cfg, name: *name, w: w, seed: *seed, nops: w.OpsPerPass, seconds: time.Duration(*seconds) * time.Second}
	if err := r.run(*work, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := result{Correct: len(r.problems) == 0 && r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, m := range r.metrics {
		res.Metrics[m.name] = m.metric
	}
	fmt.Printf("fail_ratio %d/%d = %g\n", r.failed, r.attempted, ratio(float64(r.failed), float64(r.attempted)))
	for _, p := range r.problems {
		fmt.Println("FAIL", p)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

type namedMetric struct {
	name string
	metric
}

// runner runs one workload invocation and accumulates its result.
type runner struct {
	cfg     config
	name    string
	w       workload
	seed    int64
	nops    int           // ops per pass
	seconds time.Duration // measured time of an untraced run
	dir     string

	attempted, failed int
	problems          []string // determinism or digest failures
	metrics           []namedMetric
}

func (r *runner) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, namedMetric{name, metric{value, unit}})
	fmt.Printf("metric %-38s %14.6g %s\n", name, value, unit)
}

func (r *runner) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *runner) run(work string, traced bool) error {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r.dir = dir
	fmt.Printf("workload %s seed %d shards %d corpus %d ops/pass %d clients 1 (closed loop) trace %v\n",
		r.name, r.seed, r.w.Shards, r.w.Corpus, r.nops, traced)
	if traced {
		return r.traced()
	}
	return r.untraced()
}

// held is how many graphs the workload holds back for /insert: one per
// insert. The seed chooses the order they arrive in, not which ones, so
// every seed inserts the same graphs and ingest's work varies less by seed.
func (r *runner) held() int {
	if r.name != "ingest" {
		return 0
	}
	return (r.nops + ingestGroup - 1) / ingestGroup
}

// setupResult is one complete setup: a warmed-up server over a reopened
// engine, and the timings of each step.
type setupResult struct {
	s        *served
	bi       buildInfo
	corpus   *graphrep.Database // the generated heap corpus
	generate time.Duration
	total    time.Duration // every step, warm-up included, planning excluded
	n0       int           // corpus size before any insert
}

// setup generates the corpus, builds and saves the index, reopens both
// files mapped, starts the server and runs the warm-up. The plan is made
// from the first setup's corpus (untimed); later setups reuse it.
func (r *runner) setup(rep int, pl *plan) (setupResult, error) {
	var su setupResult
	dir := filepath.Join(r.dir, fmt.Sprintf("setup%d", rep))
	if err := os.Mkdir(dir, 0o755); err != nil {
		return su, err
	}
	start := time.Now()
	c, err := generate(r.w.Corpus, r.held(), r.cfg.CorpusSeed)
	if err != nil {
		return su, err
	}
	su.generate = time.Since(start)
	su.corpus, su.n0 = c.db, c.db.Len()
	var planning time.Duration
	if pl.ops == nil {
		t := time.Now()
		if *pl, err = makePlan(r.name, c.db, c.held, r.nops, r.seed); err != nil {
			return su, err
		}
		planning = time.Since(t)
	}
	if su.bi, err = buildAndSave(c.db, r.w.Shards, dir); err != nil {
		return su, err
	}
	if su.s, err = restart(su.bi, *pl, nil); err != nil {
		return su, err
	}
	su.total = time.Since(start) - planning
	fmt.Printf("setup %d: %.3f s (generate %.3f, open %.3f, reopen+serve+warm-up %.3f)\n", rep, su.total.Seconds(),
		su.generate.Seconds(), su.bi.openTime.Seconds(), (su.total - su.generate - su.bi.openTime - su.bi.saveCorpus - su.bi.saveIndex).Seconds())
	return su, nil
}

// untraced is the end-to-end run: HTTP passes over the same ops, each on a
// fresh engine, until their measured wall time reaches r.seconds. The first
// cfg.SetupRepeats passes each run on a complete new setup (the median of
// those setups is setup_s); the rest on engines reopened from the last
// setup's files. Every pass must reproduce the first one's answers and work
// counts.
//
// Passes do identical work, so they differ in speed only because something
// else holds the shared host's cores. Two things keep that out of the
// metrics. The speed probe runs after every op and around every setup, and
// each time is divided by the probe's slowdown over the same stretch, so
// every time metric reads as at the reference speed. And each metric is
// taken over many short passes rather than from one long one: setup_s, qps
// and cpu_ms_per_op are medians of the per-pass figures, and the latency
// percentiles are those of every measured op of every pass.
// The pass lines print the raw figures beside the scaled ones.
func (r *runner) untraced() error {
	var pl plan
	var first pass
	var bi buildInfo
	var n0 int
	var measured time.Duration
	var setups, qps, cpu, lats []float64
	probe := newSpeedProbe()
	for i := 0; i < r.cfg.SetupRepeats || measured < r.seconds; i++ {
		var s *served
		var err error
		if i < r.cfg.SetupRepeats {
			var pt probeTime
			probe.run(setupProbeRuns, &pt)
			su, err := r.setup(i, &pl)
			if err != nil {
				return err
			}
			probe.run(setupProbeRuns, &pt)
			s, bi, n0 = su.s, su.bi, su.n0
			setups = append(setups, su.total.Seconds()/pt.slowdown())
		} else if s, err = restart(bi, pl, nil); err != nil {
			return err
		}
		s.probe = probe
		p := s.httpPass(pl, nil)
		measured += p.wall
		r.verify(fmt.Sprintf("pass %d", i), pl, p, n0)
		if i == 0 {
			r.exact(s, pl, p)
			r.report(p)
			first = p
		} else {
			r.same(fmt.Sprintf("pass %d", i), first, p)
		}
		if err := s.close(); err != nil {
			return err
		}

		// The ops' own time excludes the probe runs between them.
		var busy time.Duration
		lat := make([]float64, len(p.outcomes))
		for j, o := range p.outcomes {
			lat[j] = ms(o.latency)
			busy += o.latency
		}
		v, _ := percentile(lat, 90)
		n, f := float64(len(pl.ops)), p.probe.slowdown()
		rawQPS, rawP50, rawCPU := n/busy.Seconds(), median(lat), ms(p.cpu-p.probe.cpu)/n
		qps = append(qps, rawQPS*f)
		cpu = append(cpu, rawCPU/f)
		for _, l := range lat {
			lats = append(lats, l/f)
		}
		fmt.Printf("pass %d: slowdown %.4f; raw qps %.4g p50 %.4g ms p90 %.4g ms cpu %.4g ms/op; scaled qps %.4g cpu %.4g ms/op; gc cycles %d heap %d MB\n",
			i, f, rawQPS, rawP50, v, rawCPU, qps[i], cpu[i], p.gcCycles, p.heapMB)
	}
	p90, beyond, err := tailPercentile(lats, 90)
	if err != nil {
		return err
	}
	fmt.Printf("setup_s samples (scaled) %v\n", setups)
	fmt.Printf("latency samples %d (all passes, scaled), beyond p90 %d\n", len(lats), beyond)
	r.add("setup_s", median(setups), "s")
	r.add("qps", median(qps), "1/s")
	r.add("latency_p50_ms", median(lats), "ms")
	r.add("latency_p90_ms", p90, "ms")
	r.add("cpu_ms_per_op", median(cpu), "ms")
	r.add("rss_peak_mb", peakRSSMB(), "MB")
	return nil
}

// same records a problem when pass p's answers or work counts differ from
// those of the first pass over the same ops.
func (r *runner) same(label string, first, p pass) {
	if d1, d := digest(first.outcomes), digest(p.outcomes); d1 != d {
		r.problem("%s digest %s differs from the first pass's %s", label, d, d1)
	}
	if diff := first.counts.firstDiff(p.counts); diff != "" {
		r.problem("%s work counts differ from the first pass's at %s", label, diff)
	}
}

// verify runs the answer oracle over a pass and counts its failures.
func (r *runner) verify(label string, pl plan, p pass, n0 int) {
	r.attempted += len(pl.ops)
	errs := checkPass(pl, p.outcomes, n0)
	r.failed += len(errs)
	for i, err := range errs {
		if i == 5 {
			fmt.Printf("%s: %d more failed ops\n", label, len(errs)-i)
			break
		}
		fmt.Printf("%s: failed %v\n", label, err)
	}
}

// exact re-answers a handful of ops with the baseline greedy.
func (r *runner) exact(s *served, pl plan, p pass) {
	checked, errs := exactCheck(s.eng, pl, p.outcomes)
	r.attempted += checked
	r.failed += len(errs)
	for _, err := range errs {
		fmt.Println("exact:", err)
	}
	fmt.Printf("exact baseline checks %d, mismatches %d\n", checked, len(errs))
}

// report prints the pass's digest and work counts and checks the digest
// against the pinned one for this seed, if any.
func (r *runner) report(p pass) {
	d := digest(p.outcomes)
	status := "not pinned for this seed"
	for _, pn := range r.cfg.Pinned {
		if pn.Workload == r.name && pn.Seed == r.seed {
			status = "matches pinned"
			if pn.Digest != d {
				status = "DIFFERS from pinned " + pn.Digest
				r.problem("digest %s differs from pinned %s", d, pn.Digest)
			}
		}
	}
	fmt.Printf("digest %s %s (%s)\n", r.name, d, status)
	fmt.Printf("counts %s %s\n", r.name, p.counts)
}
