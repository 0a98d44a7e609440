package main

import (
	"math"
	"strings"
	"testing"
)

func TestParseBenchMetrics(t *testing.T) {
	out, err := parseBench(strings.NewReader(
		"BenchmarkParkedTick/skip-4workers-8 \t3\t144100000 ns/op\t0.0721 memofrac\t0.766 skipfrac\t0 B/op\t0 allocs/op\n" +
			"BenchmarkPlain-8 \t100\t1000 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("parsed %d records, want 2", len(out))
	}
	m := out[0].Metrics
	if m["skipfrac"] != 0.766 || m["memofrac"] != 0.0721 {
		t.Errorf("metrics = %v, want skipfrac 0.766 and memofrac 0.0721", m)
	}
	if _, ok := m["B/op"]; ok {
		t.Error("allocation columns must not be recorded as metrics")
	}
	if out[1].Metrics != nil {
		t.Errorf("metric-free row carries %v", out[1].Metrics)
	}
}

func TestPromotePhases(t *testing.T) {
	out, err := parseBench(strings.NewReader(
		"BenchmarkParkedTick/skip-4workers-8 \t3\t144100000 ns/op\t41200000 ph_deliver_ns\t9300000 ph_advance_ns\t0.766 skipfrac\n"))
	if err != nil {
		t.Fatal(err)
	}
	recs := promotePhases(out)
	if len(recs) != 3 {
		t.Fatalf("promoted to %d records, want parent + 2 phases: %+v", len(recs), recs)
	}
	parent := recs[0]
	if parent.Metrics["skipfrac"] != 0.766 {
		t.Errorf("parent lost its non-phase metrics: %v", parent.Metrics)
	}
	if _, ok := parent.Metrics["ph_deliver_ns"]; ok {
		t.Error("promoted phase metric still on the parent record")
	}
	// Derived records are appended in sorted phase order so the history
	// file is stable run to run.
	if recs[1].Bench != "BenchmarkParkedTick/skip-4workers/phase:advance" || recs[1].NsPerOp != 9300000 {
		t.Errorf("derived[0] = %+v", recs[1])
	}
	if recs[2].Bench != "BenchmarkParkedTick/skip-4workers/phase:deliver" || recs[2].NsPerOp != 41200000 {
		t.Errorf("derived[1] = %+v", recs[2])
	}
	if recs[1].Iters != 3 {
		t.Errorf("derived record dropped the parent's iteration count: %+v", recs[1])
	}
	// The derived lines are first-class: judge them like any benchmark.
	prior := []record{{NsPerOp: 9000000}, {NsPerOp: 9100000}, {NsPerOp: 9200000}}
	if v := judge(recs[1], prior, 0.10, 3); v.kind != verdictOK {
		t.Errorf("phase record not judged: %+v", v)
	}
}

func TestPromotePhasesNoPhases(t *testing.T) {
	in := []record{{Bench: "BenchmarkPlain", NsPerOp: 1000, Iters: 10}}
	out := promotePhases(in)
	if len(out) != 1 || out[0].Bench != "BenchmarkPlain" {
		t.Fatalf("phase-free input changed: %+v", out)
	}
}

func TestMetricFloors(t *testing.T) {
	floors, err := parseMetricBounds("BenchmarkParkedTick/skip:skipfrac:0.7,BenchmarkParkedTick/skip:memofrac:0.03", false)
	if err != nil {
		t.Fatal(err)
	}
	fresh := []record{
		{Bench: "BenchmarkParkedTick/skip-4workers", Metrics: map[string]float64{"skipfrac": 0.766, "memofrac": 0.072}},
		{Bench: "BenchmarkParkedTick/eager-4workers", Metrics: map[string]float64{"skipfrac": 0}},
	}
	if v := checkMetricBounds(fresh, floors); len(v) != 0 {
		t.Errorf("healthy run violated floors: %v", v)
	}

	// Below the floor, metric gone missing, and no benchmark matching the
	// prefix at all — each must violate, never silently pass.
	low := []record{{Bench: "BenchmarkParkedTick/skip-4workers", Metrics: map[string]float64{"skipfrac": 0.5, "memofrac": 0.072}}}
	if v := checkMetricBounds(low, floors); len(v) != 1 {
		t.Errorf("below-floor run: %d violations, want 1: %v", len(v), v)
	}
	gone := []record{{Bench: "BenchmarkParkedTick/skip-4workers", Metrics: map[string]float64{"skipfrac": 0.766}}}
	if v := checkMetricBounds(gone, floors); len(v) != 1 {
		t.Errorf("missing-metric run: %d violations, want 1: %v", len(v), v)
	}
	if v := checkMetricBounds([]record{{Bench: "BenchmarkOther"}}, floors); len(v) != 2 {
		t.Errorf("unmatched prefix: %d violations, want 2: %v", len(v), v)
	}
	nan := []record{{Bench: "BenchmarkParkedTick/skip-4workers", Metrics: map[string]float64{"skipfrac": math.NaN(), "memofrac": 0.072}}}
	if v := checkMetricBounds(nan, floors); len(v) != 1 {
		t.Errorf("NaN metric: %d violations, want 1: %v", len(v), v)
	}

	for _, bad := range []string{"nonsense", "a:b", "a:b:x", "::1", "a::1"} {
		if _, err := parseMetricBounds(bad, false); err == nil {
			t.Errorf("parseMetricBounds(%q) accepted a malformed clause", bad)
		}
	}
}

func TestMetricCeilings(t *testing.T) {
	ceilings, err := parseMetricBounds("BenchmarkParkedTick/skip:liveB/node:5000", true)
	if err != nil {
		t.Fatal(err)
	}
	rec := func(v float64) []record {
		return []record{
			{Bench: "BenchmarkParkedTick/skip-4workers", Metrics: map[string]float64{"liveB/node": v}},
			{Bench: "BenchmarkParkedTick/eager-4workers", Metrics: map[string]float64{"liveB/node": 9999}},
		}
	}
	// The metric survives go test's output format, slash and all.
	parsed, err := parseBench(strings.NewReader(
		"BenchmarkParkedTick/skip-4workers-2   3   118000000 ns/op   0.62 skipfrac   4200 liveB/node\n"))
	if err != nil {
		t.Fatal(err)
	}
	if v := checkMetricBounds(parsed, ceilings); len(v) != 0 {
		t.Errorf("parsed healthy run violated ceilings: %v (records %+v)", v, parsed)
	}
	if v := checkMetricBounds(rec(4200), ceilings); len(v) != 0 {
		t.Errorf("healthy run violated ceilings: %v", v)
	}
	if v := checkMetricBounds(rec(5000), ceilings); len(v) != 0 {
		t.Errorf("run at the ceiling violated it: %v", v)
	}

	// Above the ceiling, metric gone missing, NaN, and no benchmark
	// matching the prefix at all — each must violate, never silently pass.
	if v := checkMetricBounds(rec(5001), ceilings); len(v) != 1 || !strings.Contains(v[0], "above ceiling") {
		t.Errorf("above-ceiling run: violations %v, want one above ceiling", v)
	}
	if v := checkMetricBounds(rec(math.NaN()), ceilings); len(v) != 1 {
		t.Errorf("NaN metric: %d violations, want 1: %v", len(v), v)
	}
	gone := []record{{Bench: "BenchmarkParkedTick/skip-4workers", Metrics: map[string]float64{"skipfrac": 0.7}}}
	if v := checkMetricBounds(gone, ceilings); len(v) != 1 {
		t.Errorf("missing-metric run: %d violations, want 1: %v", len(v), v)
	}
	if v := checkMetricBounds([]record{{Bench: "BenchmarkOther"}}, ceilings); len(v) != 1 {
		t.Errorf("unmatched prefix: %d violations, want 1: %v", len(v), v)
	}

	// Floors and ceilings judged together each keep their own direction.
	floors, err := parseMetricBounds("BenchmarkParkedTick/skip:liveB/node:4000", false)
	if err != nil {
		t.Fatal(err)
	}
	if v := checkMetricBounds(rec(4200), append(floors, ceilings...)); len(v) != 0 {
		t.Errorf("run inside [floor, ceiling] violated: %v", v)
	}
	if v := checkMetricBounds(rec(3000), append(floors, ceilings...)); len(v) != 1 || !strings.Contains(v[0], "below floor") {
		t.Errorf("below-floor run: violations %v, want one below floor", v)
	}

	for _, bad := range []string{"nonsense", "a:b", "a:b:x", "::1", "a::1", "a:b:NaN"} {
		if _, err := parseMetricBounds(bad, true); err == nil {
			t.Errorf("parseMetricBounds(%q, ceiling) accepted a malformed clause", bad)
		}
	}
}

func TestCollapseMedian(t *testing.T) {
	out, err := parseBench(strings.NewReader(`
goos: linux
BenchmarkA-8    	     100	  1000 ns/op
BenchmarkB-8    	      50	  7000 ns/op
BenchmarkA-8    	     120	  5000 ns/op
BenchmarkA-8    	     110	  1200 ns/op
PASS
`))
	if err != nil {
		t.Fatal(err)
	}
	got := collapseMedian(out)
	if len(got) != 2 {
		t.Fatalf("collapsed to %d records, want 2: %+v", len(got), got)
	}
	// First-appearance order preserved; A's median of {1000, 5000, 1200}
	// is 1200, carried by the run that produced it.
	if got[0].Bench != "BenchmarkA" || got[0].NsPerOp != 1200 || got[0].Iters != 110 {
		t.Errorf("A = %+v, want median 1200 ns/op from the 110-iter run", got[0])
	}
	if got[1].Bench != "BenchmarkB" || got[1].NsPerOp != 7000 {
		t.Errorf("B = %+v, want the single run unchanged", got[1])
	}
}

func TestCollapseMedianEvenCount(t *testing.T) {
	got := collapseMedian([]record{
		{Bench: "BenchmarkA", NsPerOp: 1000, Iters: 9},
		{Bench: "BenchmarkA", NsPerOp: 2000, Iters: 7},
	})
	if len(got) != 1 || got[0].NsPerOp != 1500 {
		t.Fatalf("even-count median = %+v, want one record at 1500 ns/op", got)
	}
}

func recs(ns ...float64) []record {
	out := make([]record, len(ns))
	for i, v := range ns {
		out[i] = record{NsPerOp: v}
	}
	return out
}

func TestNoiseFloor(t *testing.T) {
	// Dead-steady history: zero floor, the fixed threshold governs.
	if f := noiseFloor(recs(1000, 1000, 1000, 1000), 1000); f != 0 {
		t.Errorf("steady history floor = %v, want 0", f)
	}
	// Symmetric ±10% jitter around 1000: MAD = 100, floor = 10%.
	if f := noiseFloor(recs(900, 1100, 900, 1100, 1000), 1000); f != 0.1 {
		t.Errorf("jittery history floor = %v, want 0.1", f)
	}
	// One wild outlier in an otherwise steady history must not inflate
	// the floor — the MAD discards it like the median does.
	if f := noiseFloor(recs(1000, 1000, 1000, 1000, 5000), 1000); f != 0 {
		t.Errorf("outlier history floor = %v, want 0", f)
	}
	if f := noiseFloor(recs(1000), 0); f != 0 {
		t.Errorf("degenerate median floor = %v, want 0", f)
	}
	// Short histories still yield a finite, non-NaN floor: one entry has
	// zero deviation, two entries straddle their midpoint symmetrically.
	if f := noiseFloor(recs(1000), 1000); f != 0 {
		t.Errorf("single-entry floor = %v, want 0", f)
	}
	if f := noiseFloor(recs(900, 1100), 1000); f != 0.1 {
		t.Errorf("two-entry floor = %v, want 0.1", f)
	}
}

func TestMedianDegenerate(t *testing.T) {
	// An empty window must not panic (it used to index vals[-1]).
	if m := median(nil); m != 0 {
		t.Errorf("median(nil) = %v, want 0", m)
	}
	if m := median(recs(42)); m != 42 {
		t.Errorf("single-sample median = %v, want 42", m)
	}
	if m := median(recs(30, 10)); m != 20 {
		t.Errorf("even-count median = %v, want 20", m)
	}
}

// TestJudgeDegenerateHistories pins the gate against the histories that
// used to produce NaN deltas or panics: every row must come back with an
// explicit verdict, never a silent "ok" born of a NaN comparison.
func TestJudgeDegenerateHistories(t *testing.T) {
	cases := []struct {
		name       string
		fresh      float64
		prior      []record
		minHistory int
		want       string
	}{
		// -min-history 0 against an empty window used to panic in median.
		{"empty history, min 0", 1000, nil, 0, verdictSeed},
		{"short history", 1000, recs(1000), 3, verdictSeed},
		// All-zero history: med == 0, delta would be +Inf (or NaN for a
		// zero sample) — both compared false against the gate and passed.
		{"zero history", 1000, recs(0, 0, 0), 3, verdictDegenerate},
		{"zero sample", 0, recs(1000, 1000, 1000), 3, verdictDegenerate},
		{"zero sample, zero history", 0, recs(0, 0, 0), 3, verdictDegenerate},
		{"negative history", 1000, recs(-1000, -1000, -1000), 3, verdictDegenerate},
		{"inf sample", math.Inf(1), recs(1000, 1000, 1000), 3, verdictDegenerate},
		{"nan sample", math.NaN(), recs(1000, 1000, 1000), 3, verdictDegenerate},
		// Healthy windows still judge, including the short ones -min-history
		// permits: a single- or two-entry window has floor 0 resp. finite,
		// so the fixed threshold governs and real regressions still trip.
		{"single-entry window regression", 2000, recs(1000), 1, verdictRegression},
		{"two-entry window ok", 1050, recs(990, 1010), 2, verdictOK},
		{"two-entry window regression", 1300, recs(990, 1010), 2, verdictRegression},
		{"steady history ok", 1050, recs(1000, 1000, 1000), 3, verdictOK},
		{"steady history regression", 1200, recs(1000, 1000, 1000), 3, verdictRegression},
	}
	for _, c := range cases {
		v := judge(record{NsPerOp: c.fresh}, c.prior, 0.10, c.minHistory)
		if v.kind != c.want {
			t.Errorf("%s: verdict %q, want %q (med %v delta %v gate %v)",
				c.name, v.kind, c.want, v.med, v.delta, v.gate)
		}
		if v.kind == verdictOK || v.kind == verdictRegression {
			if math.IsNaN(v.delta) || math.IsInf(v.delta, 0) || math.IsNaN(v.gate) || v.gate <= 0 {
				t.Errorf("%s: judged with a degenerate delta/gate: %+v", c.name, v)
			}
		}
	}
}
