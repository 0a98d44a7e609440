package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
)

// witness identifies a run's simulated outcome exactly: the end-of-run
// state fingerprint and the FNV-64a digest of the sink's JSONL record
// stream. Equal witnesses mean bit-identical traces.
type witness struct {
	fp, digest uint64
}

// untracedRun is one soak timed from outside through the per-round
// Progress callback.
type untracedRun struct {
	setup   time.Duration   // call to end of the last warm-up round
	rounds  []time.Duration // measured rounds
	ticks   int             // engine ticks over the measured rounds
	witness witness
}

// runUntraced runs the workload through its public entry point —
// obs.RunSoak, or dist.RunLoopback for a sharded workload — with the
// record stream hashed instead of written to a file.
func runUntraced(w workload, seed int64, measured int) (*untracedRun, error) {
	h := fnv.New64a()
	sink := obs.NewJSONLSink(h, 0)
	cfg := w.soakConfig(seed, w.warm+measured)
	cfg.Sink = sink
	cfg.Fingerprint = true
	cfg.ProgressEvery = 1

	run := &untracedRun{rounds: make([]time.Duration, 0, measured)}
	var last time.Time
	var warmTick int
	start := time.Now()
	cfg.Progress = func(r int, st obs.RoundStats) {
		now := time.Now()
		switch {
		case r == w.warm:
			run.setup = now.Sub(start)
			warmTick = st.Tick
		case r > w.warm:
			run.rounds = append(run.rounds, now.Sub(last))
			run.ticks = st.Tick - warmTick
		}
		last = now
	}

	var res *obs.SoakResult
	var err error
	if w.shards > 1 {
		res, err = dist.RunLoopback(dist.Config{Soak: cfg, Shards: w.shards})
	} else {
		res, err = obs.RunSoak(cfg)
	}
	if cerr := sink.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing the record sink: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	if res.Rounds != w.warm+measured || len(run.rounds) != measured {
		return nil, fmt.Errorf("ran %d rounds (%d measured), want %d (%d)", res.Rounds, len(run.rounds), w.warm+measured, measured)
	}
	run.witness = witness{fp: res.Fingerprint, digest: h.Sum64()}
	return run, nil
}

// buildRecords is this build's subdirectory of the records directory:
// witnesses are only comparable between runs of one program, and a
// rebuilt program from changed sources may legitimately simulate
// differently.
func buildRecords(dir string) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := fnv.New64a()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hashing %s: %w", exe, err)
	}
	return filepath.Join(dir, fmt.Sprintf("%016x", h.Sum64())), nil
}

// checkRecord compares a run's witness with the one recorded earlier in
// dir for the same world, seed and length, or records it. parked and
// sharded share a world, and traced and untraced runs share a record, so
// over a series of runs every path is checked against every other.
func checkRecord(dir string, w workload, seed int64, measured int, got witness) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("n%d-active%g-churn%g-seed%d-rounds%d",
		w.n, w.active, w.churn, seed, w.warm+measured))
	line := fmt.Sprintf("%016x %016x\n", got.fp, got.digest)
	if prev, err := os.ReadFile(path); err == nil {
		if string(prev) != line {
			return fmt.Errorf("witness %q differs from the one recorded for the same world, seed and length: %q", line, prev)
		}
		return nil
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(line), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
