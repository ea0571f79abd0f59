"""Tests for the multi-tenant tuning service: dedup, coalescing, warm starts.

The acceptance-critical regressions live here:

* N concurrent structurally-identical requests produce exactly ONE tuning
  job (the rest coalesce onto it or hit the registry),
* a warm-started run reaches the cold run's best latency in at most half
  the cold run's measurement trials.
"""

import threading
import time

import pytest

from repro.core.scheduler import HARLScheduler
from repro.baselines.ansor import AnsorConfig, AnsorScheduler
from repro.hardware.measurer import Measurer
from repro.serving.registry import ScheduleRegistry
from repro.serving.service import (
    SOURCE_COALESCED,
    SOURCE_REGISTRY,
    SOURCE_SCHEDULED,
    TuningRequest,
    TuningService,
)
from repro.tensor.workloads import conv1d, gemm


def _renamed_gemms(n, m=64):
    """Structurally identical GEMMs whose names all differ."""
    return [gemm(m, m, m, name=f"client_{i}_gemm") for i in range(n)]


@pytest.fixture
def service(tiny_config):
    return TuningService(registry=ScheduleRegistry(), config=tiny_config, seed=0)


class TestCoalescing:
    def test_identical_requests_share_one_job(self, service):
        requests = [
            TuningRequest(dag=dag, n_trials=8, tenant=f"tenant-{i}")
            for i, dag in enumerate(_renamed_gemms(4))
        ]
        handles = service.process(requests)

        assert service.jobs_created == 1
        assert service.coalesced_requests == 3
        assert [h.source for h in handles] == [SOURCE_SCHEDULED] + [SOURCE_COALESCED] * 3
        assert all(h.done for h in handles)
        # Everyone gets the *same* result object: one tuning job served all.
        assert len({id(h.result) for h in handles}) == 1
        assert handles[0].result.trials_used >= 8

    def test_threaded_submissions_still_coalesce(self, service):
        handles = [None] * 6
        barrier = threading.Barrier(6)

        def client(i, dag):
            barrier.wait()
            handles[i] = service.submit(TuningRequest(dag=dag, n_trials=8))

        threads = [
            threading.Thread(target=client, args=(i, dag))
            for i, dag in enumerate(_renamed_gemms(6))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        service.run()

        assert service.jobs_created == 1
        assert all(h is not None and h.done for h in handles)
        assert sum(h.source == SOURCE_SCHEDULED for h in handles) == 1

    def test_distinct_workloads_get_distinct_jobs(self, service):
        handles = service.process([
            TuningRequest(dag=gemm(64, 64, 64), n_trials=8),
            TuningRequest(dag=conv1d(64, 16, 32, 3, 1, 1), n_trials=8),
        ])
        assert service.jobs_created == 2
        assert all(h.done for h in handles)
        assert handles[0].result.workload != handles[1].result.workload

    def test_coalesced_budget_extends_to_largest_request(self, service):
        dags = _renamed_gemms(2)
        h_small = service.submit(TuningRequest(dag=dags[0], n_trials=4))
        service.submit(TuningRequest(dag=dags[1], n_trials=12))
        service.run()
        assert h_small.result.trials_used >= 12


class TestRegistryFastPath:
    def test_second_request_is_an_o1_registry_hit(self, service):
        first = service.process([TuningRequest(dag=gemm(64, 64, 64), n_trials=8)])[0]
        assert first.source == SOURCE_SCHEDULED

        hit = service.submit(
            TuningRequest(dag=gemm(64, 64, 64, name="renamed"), n_trials=8)
        )
        assert hit.source == SOURCE_REGISTRY
        assert hit.done  # answered at submit time, no run() needed
        assert hit.result.trials_used == 0
        assert hit.result.best_latency == pytest.approx(first.result.best_latency)
        assert hit.result.best_schedule is not None
        assert service.jobs_created == 1  # no new tuning work

    def test_force_tune_bypasses_registry(self, service):
        service.process([TuningRequest(dag=gemm(64, 64, 64), n_trials=8)])
        forced = service.submit(
            TuningRequest(dag=gemm(64, 64, 64, name="fresh"), n_trials=8,
                          force_tune=True)
        )
        assert forced.source == SOURCE_SCHEDULED
        service.run()
        assert forced.result.trials_used >= 8

    def test_force_tune_resubmission_does_not_duplicate_allocation(self, service):
        # Finish a job, then force_tune the same workload: the allocation
        # FIFO must hold the recreated key exactly once.
        service.process([TuningRequest(dag=gemm(64, 64, 64), n_trials=4)])
        assert service._order == []
        forced = service.submit(TuningRequest(dag=gemm(64, 64, 64), n_trials=4,
                                              force_tune=True))
        assert len(service._order) == 1
        service.run()
        assert forced.done
        assert service._order == []

    def test_malformed_registry_schedule_still_answers(self, service):
        from dataclasses import replace

        first = service.process([TuningRequest(dag=gemm(64, 64, 64), n_trials=8)])[0]
        key = (first.fingerprint, service.target.name)
        entry = service.registry._best[key]
        # Simulate an older/torn schedule payload: parseable but incomplete.
        service.registry._best[key] = replace(entry, schedule={})

        hit = service.submit(TuningRequest(dag=gemm(64, 64, 64), n_trials=8))
        assert hit.done and hit.source == SOURCE_REGISTRY
        assert hit.result.best_latency == pytest.approx(first.result.best_latency)
        assert hit.result.best_schedule is None  # degraded gracefully, no crash
        # Warm starts tolerate it too.
        assert service.registry.warm_start_schedules(
            gemm(64, 64, 64), service.target
        ) == []

    def test_completed_jobs_populate_registry(self, service):
        service.process([TuningRequest(dag=gemm(64, 64, 64), n_trials=8,
                                       tenant="alice")])
        entry = service.registry.lookup(gemm(64, 64, 64, name="other"),
                                        service.target, k=0).entry
        assert entry is not None
        assert "alice" in entry.source


class TestBudgetAllocation:
    def test_all_jobs_complete_within_their_budgets(self, tiny_config):
        service = TuningService(registry=ScheduleRegistry(), config=tiny_config,
                                seed=0)
        handles = service.process([
            TuningRequest(dag=gemm(64, 64, 64), n_trials=10),
            TuningRequest(dag=gemm(128, 64, 64), n_trials=6),
            TuningRequest(dag=conv1d(64, 16, 32, 3, 1, 1), n_trials=6),
        ])
        assert service.jobs_created == 3
        for handle in handles:
            assert handle.done
            assert handle.result.trials_used >= handle.request.n_trials
        assert service.active_jobs() == 0


class TestExternalRoundDriving:
    """`advance` / `finish` / `current_latency`: the hooks NetworkTuner uses
    to own the budget-allocation policy instead of delegating to run()."""

    def test_advance_drives_one_job_to_completion(self, service):
        handle = service.submit(TuningRequest(dag=gemm(64, 64, 64), n_trials=8))
        assert not handle.done
        assert service.current_latency(handle) == float("inf")
        total = 0
        while not handle.done:
            spent = service.advance(handle)
            assert spent >= 0
            total += spent
        assert total >= 8
        assert handle.result.trials_used == total
        assert service.active_jobs() == 0
        # The finished job landed in the registry like a run()-driven one.
        assert service.registry.lookup(gemm(64, 64, 64), service.target)

    def test_advance_respects_max_measures(self, service):
        handle = service.submit(TuningRequest(dag=gemm(64, 64, 64), n_trials=16))
        spent = service.advance(handle, max_measures=2)
        assert 0 < spent <= 2
        assert not handle.done
        assert service.current_latency(handle) < float("inf")
        service.finish(handle)

    def test_advance_on_done_handle_is_noop(self, service):
        done = service.process([TuningRequest(dag=gemm(64, 64, 64), n_trials=4)])[0]
        assert service.advance(done) == 0

    def test_finish_flushes_best_so_far(self, service):
        handle = service.submit(TuningRequest(dag=gemm(64, 64, 64), n_trials=64))
        service.advance(handle, max_measures=4)
        result = service.finish(handle)
        assert handle.done
        assert result.trials_used < 64  # cut short, not run to budget
        assert service.active_jobs() == 0
        assert service.registry.lookup(gemm(64, 64, 64), service.target)
        # Idempotent.
        assert service.finish(handle) is result

    def test_advance_resolves_coalesced_siblings(self, service):
        a = service.submit(TuningRequest(dag=gemm(64, 64, 64), n_trials=4))
        b = service.submit(TuningRequest(dag=gemm(64, 64, 64, name="twin"),
                                         n_trials=4))
        while not a.done:
            service.advance(a)
        assert b.done
        assert b.result is a.result

    def test_warm_start_donor_provenance(self, cpu, tiny_config):
        registry = ScheduleRegistry()
        service = TuningService(registry=registry, config=tiny_config, seed=0)
        service.process([TuningRequest(dag=gemm(64, 64, 64), n_trials=8)])
        # A similar workload warm-starts from the registered donor and the
        # finished result names it.
        handle = service.process(
            [TuningRequest(dag=gemm(96, 96, 96), n_trials=8)]
        )[0]
        donors = handle.result.extras.get("warm_start_donors", [])
        assert any("gemm_m64k64n64" in donor for donor in donors)


@pytest.mark.slow
class TestWarmStartTransfer:
    """Acceptance: warm-started runs reach the cold best in ≤ half the trials."""

    COLD_TRIALS = 32

    def _cold_run(self, cpu, tiny_config, dag):
        scheduler = HARLScheduler(
            config=tiny_config, seed=0,
            measurer=Measurer(cpu, noise=0.0, seed=0),
        )
        return scheduler.tune(dag, n_trials=self.COLD_TRIALS)

    def test_harl_warm_start_halves_trials_to_cold_best(self, cpu, tiny_config):
        donor = gemm(64, 64, 64)
        cold = self._cold_run(cpu, tiny_config, donor)

        registry = ScheduleRegistry()
        assert registry.record_result(donor, cpu, cold, source="cold-run")

        # A brand-new run (fresh scheduler, cost model and seed — only the
        # registry carries knowledge across) on the same workload.
        warm_scheduler = HARLScheduler(
            config=tiny_config, seed=1,
            measurer=Measurer(cpu, noise=0.0, seed=1),
            warm_start_provider=lambda dag: registry.warm_start_schedules(dag, cpu),
        )
        warm = warm_scheduler.tune(gemm(64, 64, 64), n_trials=self.COLD_TRIALS // 2)

        assert warm.best_latency <= cold.best_latency
        reached_at = warm.trials_to_reach(cold.best_latency)
        assert reached_at is not None
        assert reached_at <= self.COLD_TRIALS // 2

    def test_ansor_warm_start_halves_trials_to_cold_best(self, cpu, tiny_config):
        donor = gemm(64, 64, 64)
        cold = AnsorScheduler(
            config=AnsorConfig.from_harl(tiny_config), seed=0,
            measurer=Measurer(cpu, noise=0.0, seed=0),
        ).tune(donor, n_trials=self.COLD_TRIALS)

        registry = ScheduleRegistry()
        registry.record_result(donor, cpu, cold, source="cold-run")

        warm = AnsorScheduler(
            config=AnsorConfig.from_harl(tiny_config), seed=1,
            measurer=Measurer(cpu, noise=0.0, seed=1),
            warm_start_provider=lambda dag: registry.warm_start_schedules(dag, cpu),
        ).tune(gemm(64, 64, 64), n_trials=self.COLD_TRIALS // 2)

        assert warm.best_latency <= cold.best_latency
        reached_at = warm.trials_to_reach(cold.best_latency)
        assert reached_at is not None and reached_at <= self.COLD_TRIALS // 2

    def test_renamed_twin_is_answered_from_the_registry(self, cpu, tiny_config):
        # Cross-*rename* reuse goes through the registry fast path: the twin
        # gets the donor's stored result in O(1) with zero trials (the
        # simulator's landscape seed is name-keyed, so re-measuring a twin is
        # neither needed nor exact).
        donor = gemm(64, 64, 64)
        cold = self._cold_run(cpu, tiny_config, donor)
        registry = ScheduleRegistry()
        registry.record_result(donor, cpu, cold, source="cold-run")

        service = TuningService(registry=registry, config=tiny_config, seed=1,
                                target=cpu)
        handle = service.submit(
            TuningRequest(dag=gemm(64, 64, 64, name="renamed_twin"), n_trials=16)
        )
        assert handle.done and handle.source == SOURCE_REGISTRY
        assert handle.result.trials_used == 0
        assert handle.result.best_latency == pytest.approx(cold.best_latency)

    def test_service_warm_starts_similar_workloads(self, cpu, tiny_config):
        # A *similar* (not identical) workload borrows the donor's schedule
        # shape: the transferred schedules are measured within the first round.
        registry = ScheduleRegistry()
        service = TuningService(registry=registry, config=tiny_config, seed=0)
        service.process([TuningRequest(dag=gemm(64, 64, 64), n_trials=12)])

        relative = gemm(96, 96, 96)  # nearest-neighbour transfer target
        handle = service.process([TuningRequest(dag=relative, n_trials=12)])[0]
        assert handle.done
        assert handle.result.best_schedule is not None
        # Both workloads are now registered for future exact hits.
        assert len(registry) == 2


class _TrackingStubScheduler:
    """Stub scheduler that records concurrent tune_round entries."""

    def __init__(self):
        self._lock = threading.Lock()
        self.active = 0
        self.max_active = 0
        self.rounds = 0
        self.spent = 0
        self.measurer = self  # provides best_latency below

    def best_latency(self, name):
        return 1.0

    def tune_round(self, dag, max_measures):
        with self._lock:
            self.active += 1
            self.max_active = max(self.max_active, self.active)
        time.sleep(0.002)  # widen the race window
        with self._lock:
            self.active -= 1
            self.rounds += 1
            spent = min(int(max_measures), 2)
            self.spent += spent
        return spent

    def finalize(self, dag):
        from repro.core.tuner import TuningResult

        return TuningResult(
            workload=dag.name, scheduler="stub", best_latency=1.0,
            best_throughput=1.0, best_schedule=None, trials_used=self.spent,
            search_steps=0, history=[],
        )


class TestDriveConcurrency:
    """Regressions for the concurrency bugfix pass in the serving core."""

    def test_advance_zero_measures_is_a_probe_not_exhaustion(self, service):
        """max_measures=0 must return 0 without finalizing the job."""
        handle = service.submit(TuningRequest(dag=gemm(64, 64, 64), n_trials=8))
        assert service.advance(handle, max_measures=0) == 0
        # Pre-fix this finalized the job with zero trials ("spent == 0 means
        # the scheduler is exhausted"); the handle must still be live.
        assert not handle.done
        assert service.active_jobs() == 1
        while not handle.done:
            service.advance(handle)
        assert handle.result.trials_used >= 8

    def test_concurrent_drivers_never_overlap_a_round(self, tiny_config):
        """run() and advance() racing on one job drive one round at a time."""
        stub = _TrackingStubScheduler()
        service = TuningService(
            registry=ScheduleRegistry(), config=tiny_config, seed=0,
            scheduler_factory=lambda name, seed, provider: stub,
        )
        handle = service.submit(TuningRequest(dag=gemm(64, 64, 64), n_trials=24))
        barrier = threading.Barrier(4)

        def advancer():
            barrier.wait()
            while not handle.done:
                service.advance(handle, max_measures=2)

        def runner():
            barrier.wait()
            service.run()

        threads = [threading.Thread(target=advancer) for _ in range(3)]
        threads.append(threading.Thread(target=runner))
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert handle.done
        assert stub.max_active == 1  # pre-fix: concurrent rounds overlapped
        # Drivers racing past the budget check must not overspend the job.
        assert handle.result.trials_used == 24
        assert service.active_jobs() == 0

    def test_finish_and_run_racing_finalize_once(self, tiny_config):
        stub = _TrackingStubScheduler()
        service = TuningService(
            registry=ScheduleRegistry(), config=tiny_config, seed=0,
            scheduler_factory=lambda name, seed, provider: stub,
        )
        handle = service.submit(TuningRequest(dag=gemm(64, 64, 64), n_trials=8))
        service.advance(handle, max_measures=2)
        barrier = threading.Barrier(2)
        results = [None, None]

        def finisher(slot):
            barrier.wait()
            results[slot] = service.finish(handle)

        threads = [threading.Thread(target=finisher, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert handle.done
        assert results[0] is results[1] is handle.result


class TestRecoverThenTransfer:
    """Regression for the embedding-through-records fix: recovered entries
    must stay visible to nearest() / warm-start transfer, not just exact
    lookups."""

    def test_recovered_entries_keep_their_embedding(self, tiny_config, tmp_path):
        from repro.records import RecordStore

        log = tmp_path / "records.jsonl"
        store = RecordStore(log)
        crashed = TuningService(
            registry=ScheduleRegistry(), config=tiny_config, seed=0,
            record_store=store,
        )
        crashed.process([TuningRequest(dag=gemm(64, 64, 64), n_trials=8)])
        store.close()
        # "Crash": the registry dies with the process; only the record log
        # survives.

        revived = TuningService(
            registry=ScheduleRegistry(), config=tiny_config, seed=0,
            record_store=RecordStore.load(log),
        )
        assert revived.recover_from_records() == 1

        entry = revived.registry.lookup(gemm(64, 64, 64), revived.target, k=0).entry
        assert entry is not None
        # Pre-fix, MeasureRecord carried no embedding, so recovered entries
        # came back with an empty one and nearest() skipped them forever.
        assert len(entry.embedding) > 0

        similar = gemm(96, 96, 96, name="relative")
        neighbours = revived.registry.lookup(similar, revived.target, k=3).neighbors
        assert any(
            candidate.fingerprint == entry.fingerprint
            for _dist, candidate in neighbours
        )

        # And the whole point: a similar workload warm-starts from the
        # recovered donor.
        handle = revived.process(
            [TuningRequest(dag=similar, n_trials=8)]
        )[0]
        donors = handle.result.extras.get("warm_start_donors", [])
        assert any("gemm_m64k64n64" in donor for donor in donors)


class TestRecoveryKeepsTargets:
    """Regression: a measurement knows its target, and recovery honours it.

    Recovery used to stamp every record with the recovering service's
    target, so a log tuned on an A100 and recovered by a Xeon service put
    the A100 latency into a Xeon registry entry.
    """

    def _tune_on(self, target, tiny_config, log):
        from repro.records import RecordStore

        store = RecordStore(log)
        TuningService(
            registry=ScheduleRegistry(), target=target, config=tiny_config,
            seed=0, record_store=store,
        ).process([TuningRequest(dag=gemm(64, 64, 64), n_trials=8)])
        store.close()

    def _revive(self, target, tiny_config, log):
        from repro.records import RecordStore

        return TuningService(
            registry=ScheduleRegistry(), target=target, config=tiny_config,
            seed=0, record_store=RecordStore.load(log),
        )

    def test_measurements_carry_their_target(self, tiny_config, tmp_path):
        from repro.hardware.catalog import default_catalog
        from repro.records import RecordStore

        a100 = default_catalog().get("a100-sxm")
        self._tune_on(a100, tiny_config, tmp_path / "a100.jsonl")
        records = RecordStore.load(tmp_path / "a100.jsonl").query(kind="measure")
        assert records and {r.target for r in records} == {"a100-sxm"}

    def test_other_target_records_are_not_recovered(self, tiny_config, tmp_path):
        from repro.hardware.catalog import default_catalog

        catalog = default_catalog()
        a100, xeon = catalog.get("a100-sxm"), catalog.get("xeon-6226r")
        log = tmp_path / "a100.jsonl"
        self._tune_on(a100, tiny_config, log)

        on_xeon = self._revive(xeon, tiny_config, log)
        assert on_xeon.recover_from_records() == 0
        assert on_xeon.registry.lookup(gemm(64, 64, 64), xeon, k=0).entry is None

        on_a100 = self._revive(a100, tiny_config, log)
        assert on_a100.recover_from_records() == 1
        entry = on_a100.registry.lookup(gemm(64, 64, 64), a100, k=0).entry
        assert entry is not None and entry.target == "a100-sxm"

    def test_legacy_records_recover_as_the_services_target(self, tiny_config, tmp_path):
        import json

        from repro.hardware.catalog import default_catalog

        xeon = default_catalog().get("xeon-6226r")
        log = tmp_path / "legacy.jsonl"
        self._tune_on(xeon, tiny_config, log)
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        for line in lines:
            line.pop("target", None)
        log.write_text("".join(json.dumps(line) + "\n" for line in lines))

        revived = self._revive(xeon, tiny_config, log)
        assert revived.recover_from_records() == 1
        entry = revived.registry.lookup(gemm(64, 64, 64), xeon, k=0).entry
        assert entry is not None and entry.target == "xeon-6226r"

    def test_malformed_embeddings_recover_without_one(self, tiny_config, tmp_path):
        import json

        from repro.hardware.catalog import default_catalog

        xeon = default_catalog().get("xeon-6226r")
        log = tmp_path / "short.jsonl"
        self._tune_on(xeon, tiny_config, log)
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        for line in lines:
            if "embedding" in line:
                line["embedding"] = [1.0, 2.0, 3.0]
        log.write_text("".join(json.dumps(line) + "\n" for line in lines))

        revived = self._revive(xeon, tiny_config, log)
        assert revived.recover_from_records() == 1
        entry = revived.registry.lookup(gemm(64, 64, 64), xeon, k=0).entry
        assert entry is not None and entry.embedding == ()
