"""The fleet's columnar hot path: batching, shared artifacts, warm pool.

Three contracts from the fleet-batching tentpole:

- the cross-tenant evaluation broker is *invisible* in results: batched
  fleets produce byte-identical sessions, transcripts and merged journals
  to the per-tenant scalar path, per backend and for mixed fleets;
- shared-memory offline artifacts resolve to byte-identical bundles in
  every worker, whatever the pool start method — asserted by content hash;
- the warm persistent pool reuses worker processes across waves without
  leaking per-wave state (``RUN_CACHE`` enablement) between them.
"""

import json
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

import repro

from repro.cluster import make_cluster
from repro.experiments import parallel
from repro.experiments.parallel import pmap, shutdown_pool, warm_pool
from repro.pfs.config import PfsConfig
from repro.rules.store import session_to_dict
from repro.service import FleetScheduler, TenantSpec
from repro.service import artifacts
from repro.service.broker import FleetEvalBroker, TenantPort
from repro.service.scheduler import run_tenant, run_tenant_group
from repro.sim.cache import RUN_CACHE
from repro.workloads import get_workload

from test_fleet import SMALL_FLEET, fleet_fingerprint


def _mixed_fleet(n=6):
    backends = ("lustre", "beegfs")
    return [
        TenantSpec(
            f"batch-{i}",
            backend=backends[i % 2],
            workloads=("IOR_64K", "MDWorkbench_8K"),
            seed=400 + i,
        )
        for i in range(n)
    ]


class TestCrossTenantBatching:
    """Batched sweeps vs the per-tenant path — bit-identity, per backend."""

    @pytest.mark.parametrize("backend", ["lustre", "beegfs"])
    def test_backend_batched_matches_per_tenant(self, backend):
        fleet = [
            TenantSpec(
                f"{backend}-{i}",
                backend=backend,
                workloads=("IOR_64K", "IO500"),
                seed=500 + i,
            )
            for i in range(3)
        ]
        batched = FleetScheduler(fleet, seed=0, batching=True).run()
        scalar = FleetScheduler(fleet, seed=0, batching=False).run()
        assert fleet_fingerprint(batched) == fleet_fingerprint(scalar)

    def test_mixed_fleet_batched_matches_per_tenant(self):
        fleet = _mixed_fleet()
        batched = FleetScheduler(fleet, seed=0, batching=True).run()
        scalar = FleetScheduler(fleet, seed=0, batching=False).run()
        assert fleet_fingerprint(batched) == fleet_fingerprint(scalar)

    def test_batching_cache_and_worker_invariance(self):
        """Batched results survive cache enablement and pool sizing."""
        fleet = SMALL_FLEET
        baseline = fleet_fingerprint(
            FleetScheduler(fleet, seed=0, batching=False, max_workers=1).run()
        )
        for kwargs in (
            {"use_cache": False},
            {"max_workers": 2},
            {"max_workers": 3, "use_cache": False},
        ):
            result = FleetScheduler(fleet, seed=0, batching=True, **kwargs).run()
            assert fleet_fingerprint(result) == baseline, kwargs

    def test_group_runner_matches_sequential_tenants(self):
        """``run_tenant_group`` == per-tenant ``run_tenant``, session for
        session (covers transcripts: ``session_to_dict`` embeds them)."""
        fleet = _mixed_fleet(4)
        sched = FleetScheduler(fleet, seed=0, use_cache=False)
        args = [
            (spec, sched.cluster_for(spec), sched.extraction_for(spec), False, None, None)
            for spec in fleet
        ]
        grouped = run_tenant_group(args)
        solo = [run_tenant(*a) for a in args]
        assert [
            [session_to_dict(s) for s in outcome.sessions] for outcome in grouped
        ] == [[session_to_dict(s) for s in outcome.sessions] for outcome in solo]


class TestFleetEvalBroker:
    """The rendezvous itself: flush accounting, retire, fault isolation."""

    def _port_thread(self, broker, results, index, cluster, workload, config, seed):
        port = TenantPort(broker)

        def body():
            try:
                results[index] = port.evaluate(cluster, workload, config, seed)
            finally:
                port.retire()

        return threading.Thread(target=body)

    def test_concurrent_submissions_share_one_flush(self):
        cluster = make_cluster(backend="lustre")
        workload = get_workload("IOR_64K")
        broker = FleetEvalBroker()
        n = 4
        for _ in range(n):
            broker.register()
        results = [None] * n
        threads = [
            self._port_thread(
                broker, results, i, cluster, workload, PfsConfig(backend="lustre"), i
            )
            for i in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert broker.batched_items == n
        # All four parked on the same rendezvous: at most two rounds even
        # under adversarial scheduling, never one flush per item.
        assert broker.flushes <= 2
        from repro.pfs.simulator import Simulator

        sim = Simulator(cluster)
        expected = [sim.run(workload, PfsConfig(backend="lustre"), seed=i) for i in range(n)]
        assert [r.seconds for r in results] == [e.seconds for e in expected]

    def test_retire_unblocks_stragglers(self):
        """A retired tenant stops gating the rendezvous."""
        cluster = make_cluster(backend="lustre")
        workload = get_workload("IOR_64K")
        broker = FleetEvalBroker()
        broker.register()
        broker.register()
        port_a, port_b = TenantPort(broker), TenantPort(broker)
        done = {}

        def busy():
            done["a"] = port_a.evaluate(cluster, workload, PfsConfig(backend="lustre"), 1)
            port_a.retire()

        thread = threading.Thread(target=busy)
        thread.start()
        # B never evaluates; its retirement must release A's pending item.
        port_b.retire()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert done["a"].seconds > 0

    def test_poisoned_item_fails_only_its_owner(self):
        """A config that raises breaks its tenant, not flush-mates."""
        cluster = make_cluster(backend="lustre")
        workload = get_workload("IOR_64K")
        bad = PfsConfig(backend="lustre")
        bad["osc.max_pages_per_rpc"] = 10**9  # validation fails at run time
        broker = FleetEvalBroker()
        broker.register()
        broker.register()
        outcome = {}

        def submit(name, config):
            port = TenantPort(broker)
            try:
                outcome[name] = port.evaluate(cluster, workload, config, 0)
            except Exception as exc:  # noqa: BLE001 - the assertion target
                outcome[name] = exc
            finally:
                port.retire()

        threads = [
            threading.Thread(target=submit, args=("good", PfsConfig(backend="lustre"))),
            threading.Thread(target=submit, args=("bad", bad)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert isinstance(outcome["bad"], ValueError)
        assert outcome["good"].seconds > 0


def _cluster_blob(backend):
    return artifacts.OfflineArtifacts(
        cluster=make_cluster(backend=backend), extraction=None, manual="m"
    )


class TestSharedArtifacts:
    """Publish-once artifacts: content-hash parity in every worker."""

    def test_local_resolve_round_trip(self):
        key = ("test-artifacts", "local", 0)
        ref = artifacts.ref_for(key) or artifacts.publish(key, _cluster_blob("lustre"))
        assert artifacts.resolve(ref).cluster.backend_name == "lustre"
        assert artifacts.local_digest(key) == ref.digest

    def test_republication_returns_same_ref(self):
        key = ("test-artifacts", "idempotent", 0)
        first = artifacts.publish(key, _cluster_blob("lustre"))
        second = artifacts.publish(key, _cluster_blob("lustre"))
        assert second is first

    def test_integrity_error_on_digest_mismatch(self):
        key = ("test-artifacts", "torn", 0)
        ref = artifacts.publish(key, _cluster_blob("beegfs"))
        if ref.shm_name is None:
            pytest.skip("no shared memory on this platform")
        import dataclasses

        forged = dataclasses.replace(
            ref, key=("test-artifacts", "torn", 1), digest="0" * 64
        )
        with pytest.raises(artifacts.ArtifactIntegrityError):
            artifacts.resolve(forged)

    @pytest.mark.parametrize("start_method", ["fork", "spawn", "forkserver"])
    def test_worker_digest_parity_across_start_methods(self, start_method):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable on this platform")
        key = ("test-artifacts", "parity", 0)
        ref = artifacts.ref_for(key) or artifacts.publish(key, _cluster_blob("lustre"))
        if start_method != "fork" and ref.shm_name is None:
            pytest.skip("non-fork parity needs a shared-memory segment")
        ctx = multiprocessing.get_context(start_method)
        with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
            digests = list(pool.map(artifacts._probe_worker, [ref] * 4))
        assert digests == [ref.digest] * 4

    def test_publication_after_pool_start_leaks_nothing(self):
        """Workers forked before the first publication share the parent's
        resource tracker, so resolving a later segment neither unlinks it
        under the parent nor reports it as leaked at exit."""
        if artifacts.shared_memory is None:
            pytest.skip("no shared memory on this platform")
        script = textwrap.dedent(
            """
            from repro.experiments.parallel import shutdown_pool, warm_pool
            from repro.service import artifacts

            pool = warm_pool(2)
            list(pool.map(abs, range(2)))  # both workers forked, nothing published
            ref = artifacts.publish(("late-publication",), list(range(1000)))
            assert ref.shm_name is not None
            assert set(pool.map(artifacts._probe_worker, [ref] * 4)) == {ref.digest}
            shutdown_pool()
            """
        )
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        # Output is read to EOF, so it includes what the trackers print
        # after the interpreter has exited.
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr


def _cache_state_probe(_):
    """Module-level so the pool can pickle it."""
    return RUN_CACHE.active


def _job_with_cache_scope(item):
    with RUN_CACHE.enabled():
        assert RUN_CACHE.active
    return item * 2


class TestWarmPool:
    """Pool reuse across waves, without state bleeding between them."""

    def teardown_method(self):
        shutdown_pool()

    def test_pool_is_reused_for_same_count(self):
        first = warm_pool(2)
        assert warm_pool(2) is first

    def test_pool_resizes_by_retiring(self):
        first = warm_pool(2)
        second = warm_pool(3)
        assert second is not first
        assert parallel._POOL_WORKERS[parallel.DEFAULT_GROUP] == 3

    def test_cache_enablement_does_not_leak_between_waves(self):
        # Wave 1: jobs enter (and exit) the run-cache scope in the worker.
        assert pmap(_job_with_cache_scope, [1, 2, 3, 4], max_workers=2) == [
            2,
            4,
            6,
            8,
        ]
        # Wave 2, same warm workers: the scope must not have leaked.
        assert pmap(_cache_state_probe, range(4), max_workers=2) == [False] * 4

    def test_fleet_waves_reuse_pool_bit_identically(self):
        fleet = _mixed_fleet(4)
        first = FleetScheduler(fleet, seed=0, max_workers=2).run()
        pool = parallel._POOLS.get(parallel.DEFAULT_GROUP)
        second = FleetScheduler(fleet, seed=0, max_workers=2, use_cache=False).run()
        if pool is not None:
            assert parallel._POOLS.get(parallel.DEFAULT_GROUP) is pool
        assert fleet_fingerprint(first) == fleet_fingerprint(second)
