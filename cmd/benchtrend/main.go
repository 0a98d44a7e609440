// Command benchtrend maintains the repository's benchmark trend history:
// it parses `go test -bench` output, appends one machine-readable record
// per benchmark to a JSONL history file, and fails when a benchmark
// regressed more than a threshold against the rolling median of its own
// recent history. The scheduled bench-trend workflow runs it on the bench
// smoke suite and commits the updated history back, so the trend file is
// an append-only, reviewable perf trajectory of the repository.
//
// Usage:
//
//	go test -run XXX -bench ... -benchtime 3x . | benchtrend -history bench/history.jsonl
//	go test -run XXX -bench ... -count 3 . | benchtrend -median -history bench/history.jsonl
//
// With -median, repeated result lines for the same benchmark (go test
// -count N) are collapsed to their median ns/op before judging, so one
// noisy run cannot trip the gate.
//
// Benchmarks that report flight-recorder per-phase timings as
// `ph_<name>_ns` metric columns get one derived record per phase,
// `<bench>/phase:<name>`, judged and recorded first-class (see
// promotePhases; -phases=false disables). The per-phase gates catch a
// regression that hides inside a flat total — one phase slowing while
// another speeds up.
//
// Each benchmark is judged against a per-benchmark gate of
// max(-max-regress, 2× its noise floor), where the floor is the relative
// median absolute deviation of its recent history — a benchmark whose
// history routinely jitters ±8% is not paged for a +11% run, while a
// quiet benchmark keeps the tight fixed threshold. The verdict line
// prints both the floor and the effective gate.
//
// -min-metric and -max-metric bound custom metric columns absolutely:
// each clause benchprefix:metric:limit fails the run when a benchmark
// whose name starts with benchprefix reports the metric below (above)
// limit, or does not report it at all.
//
// Exit status: 0 when no benchmark regressed (or history is still too
// short to judge), 1 on regression, 2 on usage/IO errors. Records are
// appended before the verdict, so a regressed run is still visible in
// the history it was judged against.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// record is one benchmark observation, one JSON object per history line.
type record struct {
	TS      string             `json:"ts"`     // RFC3339 UTC
	Commit  string             `json:"commit"` // full or short hash, best effort
	Bench   string             `json:"bench"`  // benchmark name with sub-bench path, GOMAXPROCS suffix stripped
	NsPerOp float64            `json:"ns_per_op"`
	Iters   int                `json:"iters"`
	Metrics map[string]float64 `json:"metrics,omitempty"` // custom b.ReportMetric columns (skipfrac, memofrac, …)
}

// benchLine matches `go test -bench` result rows:
//
//	BenchmarkName/sub-4    	     10	  12345678 ns/op	  0.97 skipfrac
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([0-9.e+]+) ns/op`)

// metricPair matches the `<value> <unit>` columns after ns/op. The
// allocation columns go test itself appends are skipped below; what
// remains are the benchmark's own b.ReportMetric columns.
var metricPair = regexp.MustCompile(`([0-9.e+-]+) ([A-Za-z][A-Za-z0-9_/%-]*)`)

func main() {
	in := flag.String("in", "-", "bench output to parse ('-' = stdin)")
	historyPath := flag.String("history", "bench/history.jsonl", "JSONL history file (appended)")
	maxRegress := flag.Float64("max-regress", 0.10, "fail when ns/op exceeds the rolling median by more than this fraction")
	window := flag.Int("window", 10, "history entries per benchmark the rolling median is taken over")
	minHistory := flag.Int("min-history", 3, "minimum prior entries before a benchmark is judged")
	commit := flag.String("commit", "", "commit hash to record (default: $GITHUB_SHA, then git rev-parse)")
	noAppend := flag.Bool("check-only", false, "judge against history without appending")
	useMedian := flag.Bool("median", false, "collapse repeated lines per benchmark (go test -count N) to their median ns/op before judging")
	minMetric := flag.String("min-metric", "", "comma list of benchprefix:metric:floor — fail when a matching benchmark's reported metric is below floor or missing")
	maxMetric := flag.String("max-metric", "", "comma list of benchprefix:metric:ceiling — fail when a matching benchmark's reported metric is above ceiling or missing")
	promote := flag.Bool("phases", true, "promote ph_<name>_ns metrics (flight-recorder per-phase nanoseconds) to derived <bench>/phase:<name> records, judged and recorded like benchmarks of their own")
	flag.Parse()

	floors, err := parseMetricBounds(*minMetric, false)
	if err != nil {
		fatal("bad -min-metric: %v", err)
	}
	ceilings, err := parseMetricBounds(*maxMetric, true)
	if err != nil {
		fatal("bad -max-metric: %v", err)
	}

	src := os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal("open input: %v", err)
		}
		defer f.Close()
		src = f
	}
	fresh, err := parseBench(src)
	if err != nil {
		fatal("parse bench output: %v", err)
	}
	if len(fresh) == 0 {
		fatal("no benchmark result lines found")
	}
	if *promote {
		fresh = promotePhases(fresh)
	}
	if *useMedian {
		fresh = collapseMedian(fresh)
	}

	history, err := loadHistory(*historyPath)
	if err != nil {
		fatal("load history: %v", err)
	}

	now := time.Now().UTC().Format(time.RFC3339)
	hash := resolveCommit(*commit)
	for i := range fresh {
		fresh[i].TS = now
		fresh[i].Commit = hash
	}

	regressed, degenerate := 0, 0
	for _, r := range fresh {
		prior := tail(history[r.Bench], *window)
		v := judge(r, prior, *maxRegress, *minHistory)
		switch v.kind {
		case verdictSeed:
			fmt.Printf("seed  %-60s %12.0f ns/op  (%d prior entries, not judged)\n",
				r.Bench, r.NsPerOp, len(prior))
		case verdictDegenerate:
			degenerate++
			fmt.Printf("DEGEN %-60s %12.0f ns/op  median %12.0f  (non-positive sample or median, refusing to judge)\n",
				r.Bench, r.NsPerOp, v.med)
		default:
			if v.kind == verdictRegression {
				regressed++
			}
			fmt.Printf("%s %-60s %12.0f ns/op  median %12.0f  %+6.1f%%  floor %4.1f%% gate %4.1f%%\n",
				v.kind, r.Bench, r.NsPerOp, v.med, 100*v.delta, 100*v.floor, 100*v.gate)
		}
	}

	violations := checkMetricBounds(fresh, append(floors, ceilings...))
	for _, v := range violations {
		fmt.Println("BOUND", v)
	}

	if !*noAppend {
		if err := appendHistory(*historyPath, fresh); err != nil {
			fatal("append history: %v", err)
		}
	}
	if regressed > 0 || degenerate > 0 || len(violations) > 0 {
		if regressed > 0 {
			fmt.Fprintf(os.Stderr, "benchtrend: %d benchmark(s) regressed beyond max(%.0f%%, 2x noise floor)\n",
				regressed, 100**maxRegress)
		}
		if degenerate > 0 {
			fmt.Fprintf(os.Stderr, "benchtrend: %d benchmark(s) had a degenerate sample or history and could not be judged\n",
				degenerate)
		}
		if len(violations) > 0 {
			fmt.Fprintf(os.Stderr, "benchtrend: %d metric bound violation(s)\n", len(violations))
		}
		os.Exit(1)
	}
}

// promotePhases lifts flight-recorder per-phase timings out of the metric
// columns into derived records. A benchmark that reports `ph_<name>_ns`
// (per-op nanoseconds spent in engine phase <name>, from the registry's
// PhaseNs section) yields one extra record per phase named
// `<bench>/phase:<name>`, which then flows through median collapsing,
// history, and the regression gate exactly like a benchmark of its own —
// so a deliver-phase regression hidden inside a flat total still pages.
// The promoted metrics are removed from the parent record: the phase
// history lives on the derived lines, not duplicated in both.
func promotePhases(recs []record) []record {
	out := recs[:len(recs):len(recs)]
	for i := range recs {
		r := &recs[i]
		var names []string
		for unit := range r.Metrics {
			if strings.HasPrefix(unit, "ph_") && strings.HasSuffix(unit, "_ns") && len(unit) > len("ph_")+len("_ns") {
				names = append(names, unit)
			}
		}
		sort.Strings(names) // map order is random; history order should not be
		for _, unit := range names {
			phase := unit[len("ph_") : len(unit)-len("_ns")]
			out = append(out, record{
				Bench:   r.Bench + "/phase:" + phase,
				NsPerOp: r.Metrics[unit],
				Iters:   r.Iters,
			})
			delete(r.Metrics, unit)
		}
		if len(r.Metrics) == 0 {
			r.Metrics = nil
		}
	}
	return out
}

// metricBound is one -min-metric (floor) or -max-metric (ceiling)
// clause: every fresh benchmark whose name starts with prefix must report
// metric at or above (at or below) limit.
type metricBound struct {
	prefix, metric string
	limit          float64
	ceiling        bool
}

func (b metricBound) kind() string {
	if b.ceiling {
		return "ceiling"
	}
	return "floor"
}

func parseMetricBounds(spec string, ceiling bool) ([]metricBound, error) {
	if spec == "" {
		return nil, nil
	}
	var out []metricBound
	for _, clause := range strings.Split(spec, ",") {
		b := metricBound{ceiling: ceiling}
		parts := strings.Split(strings.TrimSpace(clause), ":")
		if len(parts) != 3 || parts[0] == "" || parts[1] == "" {
			return nil, fmt.Errorf("%q is not benchprefix:metric:%s", clause, b.kind())
		}
		limit, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || math.IsNaN(limit) {
			return nil, fmt.Errorf("%q: bad %s %q", clause, b.kind(), parts[2])
		}
		b.prefix, b.metric, b.limit = parts[0], parts[1], limit
		out = append(out, b)
	}
	return out, nil
}

// checkMetricBounds enforces the -min-metric and -max-metric clauses
// against the fresh records. A clause that matches no benchmark, a
// matching benchmark that stopped reporting the metric, and a NaN value
// all violate: a bound that silently stops measuring is indistinguishable
// from a pass.
func checkMetricBounds(fresh []record, bounds []metricBound) []string {
	var out []string
	for _, b := range bounds {
		matched := false
		for _, r := range fresh {
			if !strings.HasPrefix(r.Bench, b.prefix) {
				continue
			}
			matched = true
			v, ok := r.Metrics[b.metric]
			if !ok {
				out = append(out, fmt.Sprintf("%s: metric %q not reported (%s %g)", r.Bench, b.metric, b.kind(), b.limit))
				continue
			}
			// Written so that NaN fails either way.
			if b.ceiling && !(v <= b.limit) {
				out = append(out, fmt.Sprintf("%s: %s = %g above ceiling %g", r.Bench, b.metric, v, b.limit))
			} else if !b.ceiling && !(v >= b.limit) {
				out = append(out, fmt.Sprintf("%s: %s = %g below floor %g", r.Bench, b.metric, v, b.limit))
			}
		}
		if !matched {
			out = append(out, fmt.Sprintf("no benchmark matches prefix %q (%s %s:%g)", b.prefix, b.kind(), b.metric, b.limit))
		}
	}
	return out
}

// Verdict kinds. The degenerate kind exists so a zero or non-finite
// median (corrupt history, a bogus 0 ns/op sample) fails the run loudly
// instead of turning the delta into NaN — which compares false against
// any gate and used to print as "ok".
const (
	verdictSeed       = "seed "
	verdictOK         = "ok   "
	verdictRegression = "REGRESSION"
	verdictDegenerate = "DEGEN"
)

// verdict is one benchmark's judgement against its prior window.
type verdict struct {
	kind                    string
	med, delta, floor, gate float64
}

// judge compares a fresh observation against its history window. A
// minHistory below 1 is treated as 1: judging against an empty window
// has no median to compare to (and used to panic inside median).
func judge(r record, prior []record, maxRegress float64, minHistory int) verdict {
	if minHistory < 1 {
		minHistory = 1
	}
	if len(prior) < minHistory {
		return verdict{kind: verdictSeed}
	}
	med := median(prior)
	// !(x > 0) also catches NaN; Inf survives the comparison, so test it
	// explicitly. Either way the ratio below would be meaningless.
	if !(med > 0) || math.IsInf(med, 0) || !(r.NsPerOp > 0) || math.IsInf(r.NsPerOp, 0) {
		return verdict{kind: verdictDegenerate, med: med}
	}
	floor := noiseFloor(prior, med)
	gate := maxRegress
	if g := 2 * floor; g > gate {
		gate = g
	}
	delta := r.NsPerOp/med - 1
	kind := verdictOK
	if delta > gate {
		kind = verdictRegression
	}
	return verdict{kind: kind, med: med, delta: delta, floor: floor, gate: gate}
}

func parseBench(r io.Reader) ([]record, error) {
	var out []record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		loc := benchLine.FindStringSubmatchIndex(line)
		if loc == nil {
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		iters, _ := strconv.Atoi(m[2])
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		rec := record{Bench: stripProcs(m[1]), NsPerOp: ns, Iters: iters}
		rec.Metrics = parseMetrics(line[loc[1]:])
		out = append(out, rec)
	}
	return out, sc.Err()
}

// parseMetrics extracts the custom b.ReportMetric columns from the tail
// of a result row (everything after "ns/op"), dropping the allocation
// and throughput columns go test appends on its own.
func parseMetrics(tail string) map[string]float64 {
	var out map[string]float64
	for _, p := range metricPair.FindAllStringSubmatch(tail, -1) {
		unit := p[2]
		switch unit {
		case "B/op", "allocs/op", "MB/s":
			continue
		}
		v, err := strconv.ParseFloat(p[1], 64)
		if err != nil {
			continue
		}
		if out == nil {
			out = make(map[string]float64)
		}
		out[unit] = v
	}
	return out
}

// stripProcs drops the trailing -<GOMAXPROCS> suffix go test appends, so
// histories stay comparable across runner core counts. (The numbers are
// only judged against the same history file, which a given runner owns.)
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// collapseMedian reduces `go test -count N` repetitions to one record per
// benchmark carrying the median ns/op (and that run's iteration count),
// preserving first-appearance order. One noisy run out of N then cannot
// trip the regression gate, while a real slowdown moves every run and the
// median with it.
func collapseMedian(recs []record) []record {
	order := make([]string, 0, len(recs))
	groups := make(map[string][]record, len(recs))
	for _, r := range recs {
		if _, ok := groups[r.Bench]; !ok {
			order = append(order, r.Bench)
		}
		groups[r.Bench] = append(groups[r.Bench], r)
	}
	out := make([]record, 0, len(order))
	for _, name := range order {
		g := groups[name]
		med := median(g)
		// Report the run closest to the median so iters stays a real
		// observation (the even-count midpoint is synthetic).
		best := g[0]
		for _, r := range g[1:] {
			if abs(r.NsPerOp-med) < abs(best.NsPerOp-med) {
				best = r
			}
		}
		best.NsPerOp = med
		out = append(out, best)
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func loadHistory(path string) (map[string][]record, error) {
	out := make(map[string][]record)
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return out, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("bad history line %q: %v", line, err)
		}
		out[r.Bench] = append(out[r.Bench], r)
	}
	return out, sc.Err()
}

func appendHistory(path string, recs []record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, r := range recs {
		b, merr := json.Marshal(r)
		if merr != nil {
			f.Close()
			return merr
		}
		w.Write(b)
		w.WriteByte('\n')
	}
	// The close error matters as much as the flush: a full disk can eat
	// the appended records at either step, and a silently truncated
	// history would judge every future run against a corrupt window.
	err = w.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func resolveCommit(flagVal string) string {
	if flagVal != "" {
		return flagVal
	}
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		return sha
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func tail(rs []record, k int) []record {
	if len(rs) > k {
		return rs[len(rs)-k:]
	}
	return rs
}

// noiseFloor estimates a benchmark's run-to-run noise as the relative
// median absolute deviation of its recent history: MAD(prior) / median.
// The MAD resists the same single-outlier runs the median does, so a
// history with one wild entry still yields a tight floor, while a
// benchmark that genuinely jitters ±8% per run gets a proportionally
// wide one. The regression gate is max(-max-regress, 2×floor): on quiet
// benchmarks the fixed threshold governs, on noisy ones the gate widens
// so routine jitter cannot page anyone, at the cost of only catching
// regressions that clear twice the observed noise.
func noiseFloor(prior []record, med float64) float64 {
	if med <= 0 {
		return 0
	}
	devs := make([]record, len(prior))
	for i, r := range prior {
		devs[i] = record{NsPerOp: abs(r.NsPerOp - med)}
	}
	f := median(devs) / med
	// A non-finite floor would widen the gate to infinity and wave every
	// regression through; fall back to the fixed threshold instead.
	if !(f >= 0) || math.IsInf(f, 0) {
		return 0
	}
	return f
}

func median(rs []record) float64 {
	if len(rs) == 0 {
		return 0
	}
	vals := make([]float64, len(rs))
	for i, r := range rs {
		vals[i] = r.NsPerOp
	}
	for i := 1; i < len(vals); i++ {
		for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchtrend: "+format+"\n", args...)
	os.Exit(2)
}
