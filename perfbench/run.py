"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tune_chain --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run prints every end-to-end metric; with ``--trace 1``
it prints the per-layer split instead (see ``perfbench/README.md``).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import atexit
from time import perf_counter

import hostclock

# Host-speed calibration runs from the first moment, so set-up is scaled by
# passes taken during set-up; see ``hostclock``.  It stops on every way out.
CLOCK = hostclock.HostClock()
CLOCK.start()
atexit.register(CLOCK.stop)
_START = CLOCK.now()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from multiprocessing import resource_tracker  # noqa: E402
from pathlib import Path  # noqa: E402

# Exit handlers run last-registered first, so this one runs after the
# program's own: the pool has shut down and shared memory is released.  Then
# multiprocessing's resource tracker is stopped and waited for, so no process
# this run started outlives it.
atexit.register(resource_tracker._resource_tracker._stop)

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path.insert(0, str(CHECKOUT / "src"))

import stats  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from repro.core.pipeline import SESSION_PIPELINE  # noqa: E402
from repro.sim.cache import RUN_CACHE  # noqa: E402

#: Rounds whose sessions the quality guards and digests are taken over;
#: every run completes them, so the guards repeat exactly for a seed.
GUARD_ROUNDS = {"tune_chain": 4, "fleet_faulted": 3, "oracle_search": 4}
#: A p95 needs 10 samples beyond it.
MIN_SAMPLES = 200
#: Extra set-ups, each in a fresh interpreter, next to this process's own.
SETUP_PROBES = 2
#: Traced tune_chain must attribute at least this share of session time.
MIN_COVERAGE_PCT = 90.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(workload: str) -> tuple[float, float]:
    """One complete set-up in a fresh interpreter: its reference-host and
    its wall-clock seconds."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--setup-only"],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=120, check=True,
    )
    probe = json.loads(out.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["wall_s"]


def _tokens(session) -> int:
    return sum(u.input_tokens + u.output_tokens for u in session.usage.values())


def _checks(rounds, extra: dict[str, bool]) -> dict[str, bool]:
    merged: dict[str, bool] = {}
    for r in rounds:
        for name, ok in r.checks.items():
            merged[name] = merged.get(name, True) and ok
    merged.update(extra)
    return merged


def _workload_checks(name: str, ctx, rounds, seed: int) -> dict[str, bool]:
    extra = {}
    if name == "fleet_faulted":
        extra["first tenant equals a sequential run_tenant"] = wl.check_sequential_tenant(
            ctx, wl.round_seed(seed, 0), rounds[0]
        )
        extra["faults.absorbed > 0"] = sum(r.absorbed for r in rounds) > 0
    return extra


def timings(rounds, scale) -> dict[str, tuple[float, str]]:
    """The timing metrics over ``rounds``, each round's wall times
    multiplied by ``scale(round)``."""
    latencies = [ms * scale(r) for r in rounds for ms in r.session_ms]
    return {
        "session_ms_p50": (stats.median(latencies), "ms"),
        "session_ms_p95": (stats.percentile(latencies, 95), "ms"),
        "fleet_sessions_per_s": (stats.median([r.completed / (r.wall_s * scale(r)) for r in rounds]), "1/s"),
        "first_result_ms": (stats.median([r.first_ms * scale(r) for r in rounds]), "ms"),
        "search_evals_per_s": (stats.median([r.evals / (r.eval_s * scale(r)) for r in rounds]), "1/s"),
    }


def measure(name: str, ctx, seed: int, seconds: float, setup_samples: list[tuple[float, float]]):
    fn = wl.WORKLOADS[name]
    rounds = []
    start = perf_counter()
    while len(rounds) < 999:
        since = len(ctx.clock.passes)
        rounds.append(fn(ctx, wl.round_seed(seed, len(rounds))))
        rounds[-1].host = ctx.clock.factor(since)
        if len(rounds) == GUARD_ROUNDS[name]:
            # Read after a fixed amount of work, so that it does not depend
            # on how many rounds the host's speed allowed.
            rss = wl.peak_rss_mb()
        elif len(rounds) > GUARD_ROUNDS[name]:
            rounds[-1].compact()
        samples = sum(len(r.session_ms) for r in rounds)
        if (
            len(rounds) >= GUARD_ROUNDS[name]
            and samples >= MIN_SAMPLES
            and perf_counter() - start >= seconds
        ):
            break
    ctx.clock.stop()
    guard = [s for r in rounds[: GUARD_ROUNDS[name]] for s in r.sessions]
    host = ctx.clock.factor()
    wall = {"setup_s": (stats.median([w for _, w in setup_samples]), "s"), **timings(rounds, lambda r: 1.0)}
    metrics = {"setup_s": (stats.median([s for s, _ in setup_samples]), "s"), **timings(rounds, lambda r: r.host)}
    metrics.update({
        "peak_rss_mb": (rss, "MB"),
        "speedup_geomean": (stats.geomean([s.best_speedup for s in guard]), "x"),
        "attempts_mean": (statistics.fmean(s.executions for s in guard), "count"),
        "llm_tokens_per_session": (statistics.fmean(_tokens(s) for s in guard), "tokens"),
    })
    q1, q2, q3 = stats.quartiles([r.host for r in rounds])
    notes = [
        f"rounds {len(rounds)}, sessions {samples}, guard sessions {len(guard)}",
        f"highest supported percentile p{stats.highest_percentile(samples)}",
        f"guard digest {wl.digest(rounds[: GUARD_ROUNDS[name]])[:16]}",
        f"host factor {host:.4f} over {len(ctx.clock.passes)} calibration passes "
        f"(mean {statistics.fmean(ctx.clock.passes) * 1e3:.3f} ms, reference {hostclock.REFERENCE_S * 1e3:g} ms); "
        f"per round q1 {q1:.4f}, median {q2:.4f}, q3 {q3:.4f}",
        "wall clock: " + ", ".join(f"{m} {v:.4f} {u}" for m, (v, u) in wall.items()),
    ]
    return rounds, metrics, _checks(rounds, _workload_checks(name, ctx, rounds, seed)), notes


def traced(name: str, ctx, seed: int, setup_timings: dict[str, float]):
    """The guard rounds once untraced to warm up, then traced and untraced
    passes in the order T U U T, so drift within the process cancels out of
    the tracing overhead.  Each pass starts on a fresh pool."""
    fn = wl.WORKLOADS[name]
    seeds = [wl.round_seed(seed, i) for i in range(GUARD_ROUNDS[name])]
    recorder = tracing.Recorder()
    passes = {"warm": [], "traced": [], "plain": []}
    hits = misses = 0
    for kind in ("warm", "traced", "plain", "plain", "traced"):
        wl.restart_pool()
        if kind != "traced":
            passes[kind] += [fn(ctx, s) for s in seeds]
            continue
        tracing.install(recorder)
        ctx.recorder = recorder
        cache_before = RUN_CACHE.hits, RUN_CACHE.misses
        try:
            passes[kind] += [fn(ctx, s) for s in seeds]
        finally:
            recorder.uninstall()
            ctx.recorder = None
        hits += RUN_CACHE.hits - cache_before[0]
        misses += RUN_CACHE.misses - cache_before[1]
    first, rounds, plain = passes["warm"], passes["traced"], passes["plain"]
    out = HERE / "out" / f"trace-{name}-seed{seed}.jsonl"
    recorder.write(out)

    units = sum(r.completed for r in rounds)
    own = recorder.self_times()
    calls = recorder.calls()
    counts = recorder.counts

    def ms(*layers: str) -> float:
        return sum(own.get(layer, 0.0) for layer in layers) * 1e3 / units

    def per(value: float) -> float:
        return value / units

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    root_s = recorder.root_seconds()
    coverage = 100.0 * (1.0 - ratio(own.get(tracing.ROOT, 0.0), root_s))
    overhead = 100.0 * (sum(r.wall_s for r in rounds) / sum(r.wall_s for r in plain) - 1.0)
    metrics = {
        "llm.calls": (per(calls["llm"]), "count"),
        "llm.self_ms": (ms("llm", "llm.ledger"), "ms"),
        "llm.input_tokens": (per(counts["llm.input_tokens"]), "tokens"),
        "llm.output_tokens": (per(counts["llm.output_tokens"]), "tokens"),
        "llm.cached_ratio": (ratio(counts["llm.cached_tokens"], counts["llm.input_tokens"]), "ratio"),
        "agents.policy.self_ms": (ms("agents.policy"), "ms"),
        "agents.analysis.self_ms": (ms("agents.analysis"), "ms"),
        "agents.sandbox.calls": (per(calls["agents.sandbox"]), "count"),
        "agents.sandbox.self_ms": (ms("agents.sandbox"), "ms"),
        "agents.sandbox.errors": (per(counts["agents.sandbox.errors"]), "count"),
        "frame.self_ms": (ms("frame"), "ms"),
        "darshan.trace.self_ms": (ms("darshan.trace"), "ms"),
        "darshan.parse.self_ms": (ms("darshan.parse"), "ms"),
    }
    for stage in SESSION_PIPELINE.stages:
        metrics[f"core.stage.{stage.name}.self_ms"] = (ms(f"core.stage.{stage.name}"), "ms")
    metrics.update({
        "core.runner.self_ms": (ms("core.runner"), "ms"),
        "core.runner.probes": (per(counts["core.runner.probes"]), "count"),
        "rules.merge.self_ms": (ms("rules.merge"), "ms"),
        "rules.journal.self_ms": (ms("rules.journal"), "ms"),
        "rules.count": (ratio(counts["rules.carried"], counts["rules.merges"]), "count"),
        "sim.run.calls": (per(calls["sim.run"]), "count"),
        "sim.run.self_ms": (ms("sim.run"), "ms"),
        "sim.sweep.items": (per(counts["sim.sweep.items"]), "count"),
        "sim.sweep.self_ms": (ms("sim.sweep"), "ms"),
        "sim.random.self_ms": (ms("sim.random"), "ms"),
        "sim.cache.hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "search.self_ms": (ms("search"), "ms"),
        "service.admission.self_ms": (ms("service.admission"), "ms"),
        "service.admission.rejected": (per(counts["service.admission.rejected"]), "count"),
        "service.submit.self_ms": (ms("service.submit"), "ms"),
        "service.wait_ms": (ms("service.wait"), "ms"),
        "service.fold_ms": (
            (recorder.inclusive("service.rerun") + own.get("faults.breaker", 0.0)) * 1e3 / units, "ms"
        ),
        "service.reruns": (per(calls["service.rerun"]), "count"),
        "faults.absorbed": (per(sum(r.absorbed for r in rounds)), "count"),
        "faults.quarantined": (per(sum(r.quarantined for r in rounds)), "count"),
        "faults.breaker_opens": (per(counts["faults.breaker_opens"]), "count"),
        "rag.extraction_ms": (setup_timings["extraction_s"] * 1e3, "ms"),
        "pool.start_ms": (setup_timings["pool_s"] * 1e3, "ms"),
        "setup.warmup_ms": (setup_timings["warmup_s"] * 1e3, "ms"),
        "trace.coverage_pct": (coverage, "%"),
        "trace.overhead_pct": (overhead, "%"),
    })
    extra = _workload_checks(name, ctx, rounds, seed)
    traced_digest = wl.digest(rounds[: len(seeds)])
    extra["traced digest equals untraced digest"] = all(
        wl.digest(p[i : i + len(seeds)]) == traced_digest
        for p in (first, rounds, plain)
        for i in range(0, len(p), len(seeds))
    )
    if name == "tune_chain":
        extra[f"layer coverage >= {MIN_COVERAGE_PCT:g}%"] = coverage >= MIN_COVERAGE_PCT
    notes = [
        f"rounds {len(rounds)} traced + {len(first) + len(plain)} untraced, {units} traced sessions, "
        f"{len(recorder.spans)} spans written to {out.relative_to(CHECKOUT)}",
        "wall s: warm-up {:.3f}, traced {:.3f}, untraced {:.3f}".format(
            *(sum(r.wall_s for r in rs) for rs in (first, rounds, plain))
        ),
    ]
    return rounds, metrics, _checks(rounds, extra), notes


def main(argv) -> int:
    args = parse_args(argv)
    ctx, setup_timings = wl.setup(args.workload, CLOCK)
    own_wall = CLOCK.now() - _START
    own_setup = (own_wall * CLOCK.factor(), own_wall)
    if args.setup_only:
        CLOCK.stop()
        print(json.dumps({"setup_s": own_setup[0], "wall_s": own_wall}))
        return 0
    if args.trace:
        # Calibration passes inside traced code would count as time outside
        # every layer, and the per-layer split is not scaled.
        CLOCK.stop()
        rounds, metrics, checks, notes = traced(args.workload, ctx, args.seed, setup_timings)
    else:
        samples = [own_setup] + [setup_probe(args.workload) for _ in range(SETUP_PROBES)]
        rounds, metrics, checks, notes = measure(args.workload, ctx, args.seed, args.seconds, samples)
        notes.append(
            "setup samples " + ", ".join(f"{s:.3f} ({w:.3f} wall)" for s, w in samples) + " s"
        )
    attempted = sum(r.attempted for r in rounds) + len(checks)
    failed = sum(r.failed for r in rounds) + sum(1 for ok in checks.values() if not ok)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for check, ok in checks.items():
        print(f"  check {'ok  ' if ok else 'FAIL'} {check}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:34s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
