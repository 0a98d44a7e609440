package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/introspect"
)

// perLayer runs the untraced reference, then the traced run, and
// reports the per-layer metrics. Both runs must produce one witness.
func perLayer(w workload, seed int64, measured int, records string) result {
	res := result{Attempted: measured, Metrics: map[string]metric{}}
	ref, err := runUntraced(w, seed, measured)
	if err != nil {
		return finish(res, fmt.Errorf("untraced run: %w", err))
	}
	releaseMemory()
	tr, err := runTraced(w, seed, measured)
	if err != nil {
		return finish(res, fmt.Errorf("traced run: %w", err))
	}
	fmt.Printf("  fingerprint %016x stream_digest %016x (%d rounds)\n", tr.witness.fp, tr.witness.digest, w.warm+measured)
	if tr.witness != ref.witness {
		err = fmt.Errorf("traced witness %x differs from the untraced %x", tr.witness, ref.witness)
	} else {
		err = checkRecord(records, w, seed, measured, tr.witness)
	}
	refP50, trP50 := percentile(ref.rounds, 0.5), percentile(tr.rounds, 0.5)
	fmt.Printf("  round_p50_ms untraced %.3f traced %.3f (%d rounds each)\n", ms(refP50), ms(trP50), measured)
	for k, v := range layerMetrics(w, tr) {
		res.Metrics[k] = v
	}
	res.Metrics["trace_overhead_frac"] = metric{float64(trP50)/float64(refP50) - 1, "frac"}
	return finish(res, err)
}

// releaseMemory returns the previous run's heap before the next one, so
// runs in one process do not inherit each other's garbage.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// layerMetrics derives the per-layer metrics of a traced run. Spans are
// ms per tick, except obs.* and unaccounted_ms, which are ms per round.
// Counts are per tick, or fractions of their stated base.
func layerMetrics(w workload, tr *tracedRun) map[string]metric {
	ticks, rounds := float64(tr.ticks), float64(len(tr.rounds))
	perTick := func(d time.Duration) metric { return metric{ms(d) / ticks, "ms"} }
	perRound := func(d time.Duration) metric { return metric{ms(d) / rounds, "ms"} }
	phase := func(p introspect.Phase) time.Duration { return time.Duration(tr.phases[p.String()]) }
	c := func(id introspect.CounterID) float64 { return float64(tr.counters[id]) }
	count := func(id introspect.CounterID) metric { return metric{c(id) / ticks, "count"} }
	frac := func(num, den float64) metric {
		if den == 0 {
			return metric{0, "frac"}
		}
		return metric{num / den, "frac"}
	}

	sp := tr.spans
	advance, build, finish, arbitrate := sp.advance, sp.build, sp.finish, phase(introspect.PhaseArbitrate)
	top := sp.advance + sp.build + sp.finish
	var boundary time.Duration
	if w.shards > 1 {
		// Inside Shard.Tick only the program's own phase timers split the
		// engine. Its arbitrate timer runs from the end of BuildPhase, so
		// it also counts routeBoundary, Exchange and ingest; it is left
		// out (reported 0), and the rest of the tick is boundary work.
		advance, build, arbitrate = phase(introspect.PhaseAdvance), phase(introspect.PhaseBuild), 0
		finish = phase(introspect.PhaseDeliver) + phase(introspect.PhaseCompute)
		boundary = sp.tick - sp.exchange - advance - build - finish
		top = sp.tick
	}
	top += sp.observe + sp.sink
	roundSum := sum(tr.rounds)
	unaccounted := roundSum - top

	run, skipped := c(introspect.CtrComputesRun), c(introspect.CtrComputesSkipped)
	recvHits := c(introspect.CtrRecvCacheHits) + c(introspect.CtrRecvRowHits)
	recvAll := recvHits + c(introspect.CtrRecvRowRefills) + c(introspect.CtrRecvRebuilds)
	delivs, elided := c(introspect.CtrDeliveries), c(introspect.CtrDeliveriesElided)
	frames, framesElided := c(introspect.CtrBoundaryFrames), c(introspect.CtrBoundaryFramesElided)
	deltaRounds, fullRounds := c(introspect.CtrGraphDeltaRounds), c(introspect.CtrGraphFullRounds)

	return map[string]metric{
		"mobility.step_ms":    perTick(sp.mobility),
		"space.graph_ms":      perTick(advance - sp.mobility),
		"engine.build_ms":     perTick(build),
		"engine.finish_ms":    perTick(finish),
		"obs.observe_ms":      perRound(sp.observe),
		"obs.sink_ms":         perRound(sp.sink),
		"dist.tick_ms":        perTick(sp.tick),
		"dist.exchange_ms":    perTick(sp.exchange),
		"dist.boundary_ms":    perTick(boundary),
		"unaccounted_ms":      perRound(unaccounted),
		"unaccounted_frac":    frac(float64(unaccounted), float64(roundSum)),
		"engine.arbitrate_ms": perTick(arbitrate),
		"engine.deliver_ms":   perTick(phase(introspect.PhaseDeliver)),
		"engine.compute_ms":   perTick(phase(introspect.PhaseCompute)),

		"core.computes_run":         count(introspect.CtrComputesRun),
		"core.skip_frac":            frac(skipped, run+skipped),
		"core.memo_frac":            frac(c(introspect.CtrSkipMemo), run+skipped),
		"core.wake_inbox_frac":      frac(c(introspect.CtrWakeInboxNew)+c(introspect.CtrWakeInboxLost), run),
		"core.wake_hold_frac":       frac(c(introspect.CtrWakeHoldExpiry), run),
		"core.wake_self_frac":       frac(c(introspect.CtrWakeSelfActive), run),
		"engine.msg_cache_hit_frac": frac(c(introspect.CtrMsgCacheHits), c(introspect.CtrMsgCacheHits)+c(introspect.CtrMsgBuilds)),
		"engine.recv_hit_frac":      frac(recvHits, recvAll),
		"engine.elided_frac":        frac(elided, delivs+elided),
		"space.delta_round_frac":    frac(deltaRounds, deltaRounds+fullRounds),
		"radio.drops":               count(introspect.CtrRadioDrops),
		"dist.boundary_bytes":       metric{c(introspect.CtrBoundaryBytesSent) / ticks, "B"},
		"dist.frames":               count(introspect.CtrBoundaryFrames),
		"dist.elided_frac":          frac(framesElided, frames+framesElided),
		"dist.ext_deliveries":       count(introspect.CtrExtDeliveries),
		"sim.fingerprint":           metric{float64(tr.witness.fp >> 11), "hash"},
		"sim.stream_digest":         metric{float64(tr.witness.digest >> 11), "hash"},
		"sim.converged_frac":        frac(float64(tr.sim.converged), rounds),
		"sim.unexcused_breaks":      metric{float64(tr.sim.unexcused), "count"},
		"sim.groups_mean":           metric{tr.sim.groups / rounds, "count"},
	}
}
