// Command perfbench is the repository's benchmark: it drives the GRP
// soak (mobility, protocol engine, group tracker, record sink) through
// its public entry points and reports what a user of the soak pays for
// it, end to end, and — in a separate traced run — per layer.
//
// Usage, from the root of the repository:
//
//	bash perfbench/run.sh --workload parked --seed 1 --seconds 15 --trace 0
//
// --trace 0 times the soak through obs.RunSoak or dist.RunLoopback and
// prints the end-to-end metrics. --trace 1 first runs that same untimed
// reference, then drives the identical world step by step through the
// layers' public calls, times each call from here, and prints the
// per-layer metrics. The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the lines above it are
// the human-readable record with its provenance.
//
// Every run is deterministic for a given workload, seed and --seconds:
// --seconds fixes the number of measured rounds (at the workload's
// nominal rate on a 2-core host), not a wall-clock cap, so the end-of-run
// fingerprint and the record-stream digest are exact correctness
// witnesses (see soak.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// workload is one benchmark input. Every workload shares Dmax 3, range
// 2.5, DT 0.2, the soak's constant density and the perfect radio.
type workload struct {
	name    string
	why     string
	n       int
	active  float64 // obs.SoakConfig.ActiveFraction: (0,1) commuter, 1 all-moving waypoint
	churn   float64 // per-round join and leave probability
	workers int     // engine and tracker fan-out per process or shard
	shards  int     // > 1 runs through internal/dist over loopback
	warm    int     // warm-up rounds, counted in setup_s
	rate    float64 // nominal measured rounds per second: --seconds × rate rounds are measured
}

// The parked world is n=20000, not the ROADMAP's n=50000: at 50000 a
// round takes ~0.4 s on 2 cores, so one run with its warm-up and the 100
// rounds the p90 needs would take about a minute; at 20000 it takes about
// half of that. The density, the mover share and so the
// skip/delta/elision regime are the same (~77% of compute boundaries
// skipped). sharded must keep parked's n, warm-up and rate: its witness
// is compared with parked's at the same seed.
var workloads = []workload{
	{name: "parked", n: 20000, active: 0.02, workers: 2, warm: 50, rate: 8,
		why: "mostly-parked commuter world: the skip stack, the memo, the receiver row cache, the delta-patched graph and delivery elision do most of their work here"},
	{name: "moving", n: 5000, active: 1, churn: 0.1, workers: 2, warm: 20, rate: 10,
		why: "all-moving waypoint with join/leave churn: skip and elision are bypassed, the graph is rebuilt every tick; mobility, space and tracker regrouping weigh most"},
	{name: "sharded", n: 20000, active: 0.02, workers: 1, shards: 2, warm: 50, rate: 8,
		why: "parked world over two loopback shards, Workers 1 each; the only dist workload. engine.arbitrate_ms reads 0 here: the program's arbitrate timer also counts the exchange"},
}

// minRounds keeps at least ten measured rounds beyond the p90.
const minRounds = 100

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// soakConfig is the workload's scenario over rounds total rounds.
func (w workload) soakConfig(seed int64, rounds int) obs.SoakConfig {
	return obs.SoakConfig{
		N: w.n, Dmax: 3, Range: 2.5, DT: 0.2,
		Seed: seed, Workers: w.workers,
		JoinRate: w.churn, LeaveRate: w.churn,
		ActiveFraction: w.active,
		MaxRounds:      rounds,
	}
}

// measuredRounds converts --seconds into the fixed measured length.
func (w workload) measuredRounds(seconds int) int {
	return max(minRounds, int(math.Ceil(float64(seconds)*w.rate)))
}

// metric is one reported value.
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
	name := flag.String("workload", "", "workload: parked, moving or sharded")
	seed := flag.Int64("seed", 1, "scenario seed")
	seconds := flag.Int("seconds", 15, "measured length, converted to a fixed round count at the workload's nominal rate")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	records := flag.String("records", "", "directory keeping each world's fingerprint across runs, for the cross-run check (empty: off)")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if *records != "" {
		dir, err := buildRecords(*records)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		*records = dir
	}
	measured := w.measuredRounds(*seconds)
	fmt.Printf("perfbench %s seed=%d trace=%d warm=%d measured=%d\n", w.name, *seed, *trace, w.warm, measured)
	printProvenance(w, *seed, measured)

	var res result
	if *trace == 0 {
		res = endToEnd(w, *seed, measured, *records)
	} else {
		res = perLayer(w, *seed, measured, *records)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-26s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Printf("  %-26s %14.6g (%d of %d rounds failed)\n", "fail_frac",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// endToEnd times the untraced soak.
func endToEnd(w workload, seed int64, measured int, records string) result {
	res := result{Attempted: measured, Metrics: map[string]metric{}}
	run, err := runUntraced(w, seed, measured)
	if err == nil {
		err = checkRecord(records, w, seed, measured, run.witness)
	}
	if run != nil {
		fmt.Printf("  fingerprint %016x stream_digest %016x (%d rounds)\n", run.witness.fp, run.witness.digest, w.warm+measured)
		p50, p90 := percentile(run.rounds, 0.5), percentile(run.rounds, 0.9)
		res.Metrics["ticks_per_s"] = metric{ticksPerSecond(run.rounds, run.ticks), "1/s"}
		res.Metrics["round_p50_ms"] = metric{ms(p50), "ms"}
		res.Metrics["round_p90_ms"] = metric{ms(p90), "ms"}
		res.Metrics["setup_s"] = metric{run.setup.Seconds(), "s"}
		res.Metrics["rss_peak_mb"] = metric{rssPeakMB(), "MB"}
	}
	return finish(res, err)
}

// finish applies the correctness verdict: a run whose check failed fails
// every one of its rounds.
func finish(res result, err error) result {
	res.Correct = err == nil
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
		res.Failed = res.Attempted
	}
	return res
}

func printProvenance(w workload, seed int64, measured int) {
	p := map[string]any{
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"cpu":             cpuModel(),
		"go":              runtime.Version(),
		"workload":        w.name,
		"why":             w.why,
		"n":               w.n,
		"workers":         w.workers,
		"shards":          max(1, w.shards),
		"seed":            seed,
		"warm_rounds":     w.warm,
		"measured_rounds": measured,
		"p90_tail":        measured - int(math.Ceil(0.9*float64(measured))),
	}
	b, _ := json.Marshal(p) // a map of plain values always marshals
	fmt.Printf("provenance %s\n", b)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// rssPeakMB is the process's peak resident set (Linux reports ru_maxrss
// in KiB).
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// percentile is the nearest-rank q-quantile of ds.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(math.Ceil(q*float64(len(s))))-1]
}

// ticksPerSecond is the median, over five contiguous blocks of the
// measured rounds, of each block's simulated ticks per host second: a
// burst of contention from outside the process moves one block, not the
// result.
func ticksPerSecond(rounds []time.Duration, ticks int) float64 {
	const blocks = 5
	perRound := float64(ticks) / float64(len(rounds))
	rates := make([]float64, blocks)
	for b := range rates {
		lo, hi := b*len(rounds)/blocks, (b+1)*len(rounds)/blocks
		rates[b] = perRound * float64(hi-lo) / sum(rounds[lo:hi]).Seconds()
	}
	sort.Float64s(rates)
	return rates[blocks/2]
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
