package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

const (
	testSeed     = 7
	testWarm     = 3
	testMeasured = 5
)

func short(t *testing.T, name string) workload {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.warm = testWarm
	return w
}

func traced(t *testing.T, w workload) *tracedRun {
	t.Helper()
	run, err := runTraced(w, testSeed, testMeasured)
	if err != nil {
		t.Fatalf("%s: traced run: %v", w.name, err)
	}
	return run
}

// deterministic is everything in a traced run that must repeat exactly
// for a given seed: the registry counts, the witness and the simulated
// statistics.
func deterministic(run *tracedRun) any {
	return struct {
		Counters any
		Ticks    int
		Witness  witness
		Sim      simStats
	}{run.counters, run.ticks, run.witness, run.sim}
}

// TestCountsRepeat runs each workload twice at one seed, and parked at 1
// and 2 workers: every count and every simulated statistic must be
// identical.
func TestCountsRepeat(t *testing.T) {
	for _, w := range workloads {
		w := short(t, w.name)
		a, b := traced(t, w), traced(t, w)
		if !reflect.DeepEqual(deterministic(a), deterministic(b)) {
			t.Errorf("%s: two runs differ:\n%+v\n%+v", w.name, deterministic(a), deterministic(b))
		}
	}
	w := short(t, "parked")
	two := traced(t, w)
	w.workers = 1
	one := traced(t, w)
	if !reflect.DeepEqual(deterministic(one), deterministic(two)) {
		t.Errorf("parked: 1 and 2 workers differ:\n%+v\n%+v", deterministic(one), deterministic(two))
	}
}

// TestWitnessesAgree is the correctness gate at a short length: the
// traced and untraced runs of each workload produce one witness, and
// sharded's equals parked's.
func TestWitnessesAgree(t *testing.T) {
	got := map[string]witness{}
	for _, w := range workloads {
		w := short(t, w.name)
		u, err := runUntraced(w, testSeed, testMeasured)
		if err != nil {
			t.Fatalf("%s: untraced run: %v", w.name, err)
		}
		if tr := traced(t, w); tr.witness != u.witness {
			t.Errorf("%s: traced witness %x, untraced %x", w.name, tr.witness, u.witness)
		}
		got[w.name] = u.witness
	}
	if got["sharded"] != got["parked"] {
		t.Errorf("sharded witness %x, parked %x", got["sharded"], got["parked"])
	}
}

// TestRecordCheck: a second run of the same world, seed and length must
// reproduce the recorded witness.
func TestRecordCheck(t *testing.T) {
	dir := t.TempDir()
	w := short(t, "parked")
	if err := checkRecord(dir, w, 1, 100, witness{1, 2}); err != nil {
		t.Fatal(err)
	}
	sharded := short(t, "sharded")
	if err := checkRecord(dir, sharded, 1, 100, witness{1, 2}); err != nil {
		t.Errorf("same witness rejected: %v", err)
	}
	if err := checkRecord(dir, sharded, 1, 100, witness{1, 3}); err == nil {
		t.Error("differing witness accepted")
	}
	if err := checkRecord(dir, w, 2, 100, witness{1, 3}); err != nil {
		t.Errorf("another seed's witness rejected: %v", err)
	}
}

// TestBenchmarkJSONNames: BENCHMARK.json lists exactly the workloads and
// the metrics the program prints.
func TestBenchmarkJSONNames(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(ns []named) []string {
		var s []string
		for _, n := range ns {
			s = append(s, n.Name)
		}
		sort.Strings(s)
		return s
	}
	keys := func(r result) []string {
		if !r.Correct {
			t.Fatalf("run failed: %+v", r)
		}
		var s []string
		for k := range r.Metrics {
			s = append(s, k)
		}
		sort.Strings(s)
		return s
	}
	var wl []string
	for _, w := range workloads {
		wl = append(wl, w.name)
	}
	sort.Strings(wl)
	if got := names(spec.Workloads); !reflect.DeepEqual(got, wl) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", got, wl)
	}
	w := short(t, "moving")
	if got, want := names(spec.EndToEnd), keys(endToEnd(w, testSeed, testMeasured, "")); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", got, want)
	}
	if got, want := names(spec.PerLayer), keys(perLayer(w, testSeed, testMeasured, "")); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json per_layer %v, program %v", got, want)
	}
}
