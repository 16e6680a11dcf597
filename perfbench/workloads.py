"""The three benchmark workloads, their shared set-up and their checks.

Each workload is a sequence of *rounds*.  A round is generated from one
integer seed, runs to completion in a closed loop with a single client,
and returns a :class:`Round`: latency samples, the completed sessions,
evaluation counts, failures and check outcomes.  The same seed always
produces the same inputs and — the program being deterministic — the same
sessions, which is what the digest checks rely on.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path

from repro.agents.policies import list_policies
from repro.baselines.search import OracleSearch
from repro.cluster import make_cluster
from repro.core import Stellar
from repro.experiments import parallel
from repro.experiments.harness import shared_extraction
from repro.faults.plan import FaultPlan
from repro.pfs.config import PfsConfig
from repro.pfs.simulator import Simulator
from repro.rules.store import session_to_dict
from repro.service import TenantFailure, TenantResult, TenantSpec, TuningService, run_tenant
from repro.sim.cache import RUN_CACHE
from repro.sim.random import RngStreams
from repro.workloads import get_workload, list_workloads

from hostclock import HostClock
from tracing import ROOT

#: The model ``Stellar.build`` tunes with by default.
MODEL = inspect.signature(Stellar.build).parameters["model"].default
BACKENDS = ("lustre", "beegfs")
#: Fleet size: 32 tenants of 2 sessions, 4 per principal, so the default
#: AdmissionPolicy (64 pending, 8 per principal per 32 submissions) admits all.
FLEET_TENANTS = 32
FLEET_PRINCIPALS = 8
FAULT_RATE = 0.1
#: The fleet's worker count.  With one worker the service runs each tenant
#: inline as it streams, so the load comes from a single process: on a
#: two-core shared host, a parent and two busy workers measured the
#: scheduler, since each wave waited for whichever worker a neighbour slowed.
FLEET_WORKERS = 1


@dataclass
class Context:
    """Run-independent state built once by :func:`setup`."""

    clusters: dict
    extractions: dict
    #: Workloads time with ``clock.now()``, which leaves out the host-speed
    #: calibration passes; see ``hostclock``.
    clock: HostClock
    recorder: object | None = None

    def tag(self, trace_id: str) -> None:
        """Attribute the spans that follow to ``trace_id`` when tracing."""
        if self.recorder is not None:
            self.recorder.trace_id = trace_id

    def root(self, name: str, trace_id: str):
        """A root span around one unit of work when tracing, else nothing."""
        if self.recorder is None:
            return nullcontext()
        self.tag(trace_id)
        return self.recorder.span(ROOT, name)


@dataclass
class Round:
    """What one round measured and produced."""

    wall_s: float = 0.0
    #: Per-session wall time from request to result in the client's hands.
    session_ms: list[float] = field(default_factory=list)
    first_ms: float = 0.0
    sessions: list = field(default_factory=list)
    #: Configuration evaluations and the seconds they are rated over.
    evals: int = 0
    eval_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    #: Per-unit records the digest is taken over.
    records: list = field(default_factory=list)
    absorbed: int = 0
    quarantined: int = 0
    #: Sessions completed in the round; kept when :meth:`compact` drops them.
    completed: int = 0
    #: Reference-host factor of the round's wall times; see ``hostclock``.
    host: float = 1.0

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def compact(self) -> None:
        """Drop the round's sessions and records once its figures are taken,
        so a long run's heap does not grow round by round."""
        self.sessions, self.records = [], []


def lead_with(items: list, first) -> list:
    """``items`` with ``first`` moved to the front.

    Every round of the sequential workloads opens with the same request, so
    ``first_result_ms`` times like with like across rounds and seeds.
    """
    return [first] + [item for item in items if item != first]


def digest(rounds: list[Round]) -> str:
    h = hashlib.sha256()
    for r in rounds:
        for record in r.records:
            h.update(json.dumps(record, sort_keys=True, default=repr).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def worker_pids() -> list[int]:
    """Pids of this process's live children (the warm pool's workers)."""
    pids = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids += [int(p) for p in (task / "children").read_text().split()]
        except OSError:
            continue
    return pids


def _vm_hwm_mb(pid: str | int) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live pool workers."""
    return _vm_hwm_mb("self") + sum(_vm_hwm_mb(pid) for pid in worker_pids())


def _noop(item: int) -> int:
    return item


def warm_pool() -> None:
    """Start the default warm pool with every worker running.

    The resource tracker is started first, so that the workers share it
    instead of each starting one of their own when the program first
    publishes shared memory.
    """
    resource_tracker.ensure_running()
    workers = parallel.effective_workers()
    if workers > 1:
        list(parallel.warm_pool(workers).map(_noop, range(workers)))


def restart_pool() -> None:
    parallel.shutdown_pool()
    warm_pool()


#: Round seed of the warm-up round; outside every timed round's seed range.
WARMUP_SEED = 10**8


def round_seed(seed: int, index: int) -> int:
    """The seed of round ``index`` of a run; distinct for index < 1000."""
    return (seed % 100_000) * 1000 + index


def setup(name: str, clock: HostClock) -> tuple[Context, dict[str, float]]:
    """Clusters, offline extraction for both backends, the warm pool, and one
    warm-up round of the workload (so lazily built state is paid here)."""
    timings = {}
    clusters = {b: make_cluster(seed=0, backend=b) for b in BACKENDS}
    start = clock.now()
    extractions = {b: shared_extraction(clusters[b], seed=0) for b in BACKENDS}
    timings["extraction_s"] = clock.now() - start
    start = clock.now()
    warm_pool()
    timings["pool_s"] = clock.now() - start
    ctx = Context(clusters=clusters, extractions=extractions, clock=clock)
    start = clock.now()
    WORKLOADS[name](ctx, WARMUP_SEED)
    timings["warmup_s"] = clock.now() - start
    return ctx, timings


# ---------------------------------------------------------------------------
# tune_chain: the `stellar tune` path, rules accumulating across sessions
# ---------------------------------------------------------------------------


def tune_chain(ctx: Context, seed: int) -> Round:
    """One engine per backend runs every (workload, policy) pair back to back."""
    rng = random.Random(seed)
    result = Round()
    engines = {
        b: Stellar(cluster=ctx.clusters[b], model=MODEL, extraction=ctx.extractions[b], seed=seed)
        for b in BACKENDS
    }
    pairs = [(w, p) for w in list_workloads() for p in list_policies()]
    queues = {}
    for b in BACKENDS:
        queue = list(pairs)
        rng.shuffle(queue)
        queues[b] = lead_with(queue, pairs[0])
    order = [(b, *queues[b][i]) for i in range(len(queues[BACKENDS[0]])) for b in BACKENDS]
    clock = ctx.clock
    t0 = clock.now()
    for index, (backend, workload_name, policy) in enumerate(order):
        workload = get_workload(workload_name)
        result.attempted += 1
        start = clock.now()
        try:
            with ctx.root("session", f"tune_chain:{seed}:{index}"):
                session = engines[backend].tune_and_accumulate(workload, policy=policy)
        except Exception:  # noqa: BLE001 - counted as a failed operation
            result.failed += 1
            continue
        done = clock.now()
        result.session_ms.append((done - start) * 1e3)
        if not result.first_ms:
            result.first_ms = (done - t0) * 1e3
        result.sessions.append(session)
    result.wall_s = clock.now() - t0
    result.eval_s = result.wall_s
    for session in result.sessions:
        result.evals += session.executions
        result.records.append(session_to_dict(session))
        result.check("best_speedup >= 1", session.best_speedup >= 1.0)
    result.completed = len(result.sessions)
    return result


# ---------------------------------------------------------------------------
# fleet_faulted: the tuning service front end under injected faults
# ---------------------------------------------------------------------------


def fleet_tenants(seed: int) -> list[TenantSpec]:
    """A mixed-backend, multi-principal tenant set in seeded submission order.

    Every round has the same composition — each workload twice per backend,
    each policy equally often — so rounds differ only in seeds and order.
    The tenant that comes first in canonical ``(seed, tenant_id)`` order is
    always submitted first, so ``first_result_ms`` times the same request in
    every round instead of wherever the shuffle put it.
    """
    workloads, policies = list_workloads(), list_policies()
    specs = [
        TenantSpec(
            tenant_id=f"acct{i % FLEET_PRINCIPALS}/job{i:02d}",
            backend=BACKENDS[i % len(BACKENDS)],
            workloads=(workloads[i % len(workloads)], workloads[(i + 3) % len(workloads)]),
            seed=seed * 100 + i,
            policy=policies[i % len(policies)],
        )
        for i in range(FLEET_TENANTS)
    ]
    opening = specs[0]
    random.Random(seed).shuffle(specs)
    return lead_with(specs, opening)


def _tenant_records(outcome) -> dict:
    if isinstance(outcome, TenantResult):
        return {"tenant": outcome.tenant_id, "sessions": [session_to_dict(s) for s in outcome.sessions]}
    return {"tenant": outcome.tenant_id, "failure": outcome.to_dict()}


def fleet_faulted(ctx: Context, seed: int) -> Round:
    """The tenant set through the service front end under a uniform fault plan.

    Quarantined tenants are expected here, not failures: each must stream
    back with its report.
    """
    result = Round()
    specs = fleet_tenants(seed)
    # pump_interval=None queues every admitted tenant into one wave, which
    # iter_results() streams back; the default admission policy applies.
    service = TuningService(
        seed=0, max_workers=FLEET_WORKERS, faults=fault_plan(seed), pump_interval=None
    )
    streamed = []
    clock = ctx.clock
    with ctx.root("fleet_round", f"fleet:{seed}"):
        t0 = clock.now()
        admitted = 0
        for spec in specs:
            result.attempted += 1
            ctx.tag(f"fleet:{seed}:{spec.tenant_id}")
            if service.submit(spec).accepted:
                admitted += 1
            else:
                result.failed += 1
        ctx.tag(f"fleet:{seed}")
        for outcome in service.iter_results():
            arrived_ms = (clock.now() - t0) * 1e3
            if not streamed:
                result.first_ms = arrived_ms
            streamed.append(outcome)
            if isinstance(outcome, TenantResult):
                result.session_ms += [arrived_ms] * len(outcome.sessions)
            result.wall_s = clock.now() - t0
    result.eval_s = result.wall_s
    result.check("every submission admitted", admitted == len(specs))
    keys = [(o.spec.seed, o.tenant_id) for o in streamed]
    result.check("results stream in canonical (seed, tenant_id) order", keys == sorted(keys))
    result.check("every admitted tenant streams once", len(set(keys)) == admitted == len(keys))
    for outcome in streamed:
        result.records.append(_tenant_records(outcome))
        if isinstance(outcome, TenantResult):
            result.sessions += outcome.sessions
            result.evals += outcome.executions
            for session in outcome.sessions:
                result.absorbed += sum(session.fault_recovery.values())
        else:
            result.quarantined += 1
            result.absorbed += sum(outcome.fault_recovery.values())
            result.check(
                "a quarantined tenant carries a report",
                isinstance(outcome, TenantFailure) and outcome.site and outcome.error,
            )
    result.completed = len(result.sessions)
    return result


def fault_plan(seed: int) -> FaultPlan:
    return FaultPlan.uniform(FAULT_RATE, seed=seed)


def check_sequential_tenant(ctx: Context, seed: int, fleet: Round) -> bool:
    """The first streamed tenant equals a sequential ``run_tenant`` of its spec.

    The first canonical tenant always runs with every breaker closed, so the
    sequential run needs only the round's fault plan and the default retry.
    """
    expected = fleet.records[0]
    spec = next(s for s in fleet_tenants(seed) if s.tenant_id == expected["tenant"])
    outcome = run_tenant(
        spec, ctx.clusters[spec.backend], ctx.extractions[spec.backend], faults=fault_plan(seed)
    )
    return json.dumps(expected, sort_keys=True, default=repr) == json.dumps(
        _tenant_records(outcome), sort_keys=True, default=repr
    )


# ---------------------------------------------------------------------------
# oracle_search: the sim/pfs sweep path
# ---------------------------------------------------------------------------


def oracle_search(ctx: Context, seed: int) -> Round:
    """Every (workload, backend) cell: STELLAR's answer, then the oracle search.

    The session gives the cell its quality guards; the search — with the
    run cache emptied first — is most of the cell's time.
    """
    rng = random.Random(seed)
    result = Round()
    cells = [(b, w) for b in BACKENDS for w in list_workloads()]
    opening = cells[0]
    rng.shuffle(cells)
    cells = lead_with(cells, opening)
    clock = ctx.clock
    t0 = clock.now()
    for index, (backend, workload_name) in enumerate(cells):
        cluster, workload = ctx.clusters[backend], get_workload(workload_name)
        cell_seed = seed * 100 + index
        result.attempted += 1
        start = clock.now()
        try:
            with ctx.root("cell", f"oracle_search:{seed}:{index}"):
                engine = Stellar(cluster=cluster, model=MODEL, extraction=ctx.extractions[backend], seed=cell_seed)
                session = engine.tune(workload)
                RUN_CACHE.clear()
                search_start = clock.now()
                found = OracleSearch(cluster, seed=cell_seed).run(workload)
                result.eval_s += clock.now() - search_start
        except Exception:  # noqa: BLE001 - counted as a failed operation
            result.failed += 1
            continue
        done = clock.now()
        result.session_ms.append((done - start) * 1e3)
        if not result.first_ms:
            result.first_ms = (done - t0) * 1e3
        result.sessions.append(session)
        result.evals += found.evaluations
        result.records.append(
            {
                "session": session_to_dict(session),
                "best_updates": found.best_updates,
                "best_seconds": found.best_seconds,
                "evaluations": found.evaluations,
            }
        )
        result.check("best_speedup >= 1", session.best_speedup >= 1.0)
        result.check(
            "oracle best re-measured with scalar Simulator.run",
            reproduces_best(cluster, workload, cell_seed, found),
        )
    result.wall_s = clock.now() - t0
    result.completed = len(result.sessions)
    return result


def reproduces_best(cluster, workload, seed: int, found) -> bool:
    """Whether scalar ``Simulator.run`` of the search's best configuration,
    at the seed of the evaluation that found it, gives ``best_seconds``.

    Evaluation 0 is the default configuration; sweep trial ``j`` of the
    search's trace is evaluation ``j + 1`` and ran under that rep seed.
    """
    if found.best_updates:
        reps = [j + 1 for j, (_, _, secs) in enumerate(found.trace) if secs == found.best_seconds]
    else:
        reps = [0]
    if not reps:
        return False
    config = (
        PfsConfig(facts=cluster.config_facts(), backend=cluster.backend)
        .with_updates(found.best_updates)
        .clipped()
    )
    run = Simulator(cluster).run(workload, config, seed=RngStreams.rep_seed(seed, reps[0]))
    return run.seconds == found.best_seconds


WORKLOADS = {
    "tune_chain": tune_chain,
    "fleet_faulted": fleet_faulted,
    "oracle_search": oracle_search,
}
