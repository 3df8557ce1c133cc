"""The campaign execution contract: ordering, determinism, error surfacing.

Every unit test drives both entry points — :func:`supervise_campaign`
directly and the shared campaign driver :func:`run_specs` on top of it —
with a trivial worker so they stay fast; the integration test at the
bottom is the real contract — a NAS campaign run serially and with a
process pool produces byte-identical provenance and identical results.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.apps.spmd import Program
from repro.experiments import runner
from repro.experiments.runner import (
    _derive_seed,
    build_campaign_specs,
    run_campaign,
    run_nas_campaign,
)
from repro.parallel import (
    CampaignRunError,
    ResultCache,
    RetryPolicy,
    RunSpec,
    SupervisorConfig,
    campaign_digest,
    journal_path_for,
    resolve_jobs,
    run_specs,
    supervise_campaign,
)
from repro.topology.presets import generic_smp
from repro.units import msecs


def _tiny_program() -> Program:
    return Program.iterative(
        name="eng", n_iters=2, iter_work=msecs(1), init_ops=1, finalize_ops=0
    )


def _specs(n_runs: int, base_seed: int = 0):
    return build_campaign_specs(
        _tiny_program, 4, "stock", n_runs,
        base_seed=base_seed, machine_factory=lambda: generic_smp(4),
    )


# Workers must be module-level: they cross the process boundary by name.

def _double_seed(spec):
    return spec.seed * 2, None


def _straggle_early_runs(spec):
    # Early runs sleep longest, so workers finish in *reverse* index order.
    time.sleep(0.02 * max(0, 4 - spec.run_index))
    return spec.run_index, None


def _fail_run_two(spec):
    if spec.run_index == 2:
        raise ValueError("boom")
    return spec.seed, None


def _always_fail(spec):
    raise ValueError("boom")


def _record(record, bench):
    return {"bench": bench, "run_index": record.run_index, "result": record.result}


# The two entry points, each returning the campaign's records in emission
# order.  run_specs hands records out only through on_record.

def _supervised(specs, worker, *, cache_dir=None, **kw):
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    return supervise_campaign(specs, worker, cache=cache, **kw).records


def _driven(specs, worker, *, cache_dir=None, on_record=None, **kw):
    records = []

    def collect(record):
        records.append(record)
        if on_record is not None:
            on_record(record)

    run_specs(
        specs, worker, record_fn=_record, on_record=collect, regime="stock",
        use_cache=cache_dir is not None, cache_dir=cache_dir, **kw,
    )
    return records


DRIVERS = (_supervised, _driven)


def test_serial_and_parallel_records_identical():
    specs = _specs(6, base_seed=11)
    key = lambda r: (r.run_index, r.seed, r.digest, r.result, r.cache_hit)
    for drive in DRIVERS:
        serial = drive(specs, _double_seed, n_jobs=1)
        parallel = drive(specs, _double_seed, n_jobs=3)
        assert [key(r) for r in serial] == [key(r) for r in parallel]


def test_parallel_emits_in_run_index_order_despite_stragglers():
    specs = _specs(5)
    for drive in DRIVERS:
        streamed = []
        records = drive(
            specs, _straggle_early_runs, n_jobs=4,
            on_record=lambda r: streamed.append(r.run_index),
        )
        assert [r.run_index for r in records] == [0, 1, 2, 3, 4]
        assert streamed == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("n_jobs", [1, 3])
def test_progress_is_monotonic_and_complete(n_jobs):
    specs = _specs(5)
    for drive in DRIVERS:
        calls = []
        drive(
            specs, _double_seed, n_jobs=n_jobs,
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls == [(i, 5) for i in range(1, 6)]


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_failure_names_run_seed_and_digest(n_jobs):
    specs = _specs(4, base_seed=9)
    for drive in DRIVERS:
        with pytest.raises(CampaignRunError) as excinfo:
            drive(specs, _fail_run_two, n_jobs=n_jobs)
        err = excinfo.value
        assert err.run_index == 2
        assert err.seed == _derive_seed(9, 2)
        assert err.digest == specs[2].digest()
        assert "n_jobs=1" in str(err)


def test_resolve_jobs():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(8) == 8
    assert resolve_jobs(None) >= 1
    with pytest.raises(ValueError):
        resolve_jobs(0)


def test_cache_hits_preserve_ordering(tmp_path):
    specs = _specs(6)
    for drive in DRIVERS:
        cache_dir = str(tmp_path / drive.__name__)
        drive(specs, _double_seed, n_jobs=1, cache_dir=cache_dir)
        # Evict half the entries so hits and misses interleave.
        cache = ResultCache(cache_dir)
        for spec in specs[::2]:
            cache.path_for(spec.digest()).unlink()
        streamed = []
        records = drive(
            specs, _double_seed, n_jobs=2, cache_dir=cache_dir,
            on_record=lambda r: streamed.append(r.run_index),
        )
        assert streamed == [0, 1, 2, 3, 4, 5]
        assert [r.cache_hit for r in records] == [False, True] * 3
        assert [r.result for r in records] == [s.seed * 2 for s in specs]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_cached_campaign_hashes_each_spec_once(tmp_path, monkeypatch, warm):
    specs = _specs(4, base_seed=5)
    cache_dir = str(tmp_path / "cache")
    if warm:
        _driven(specs, _double_seed, cache_dir=cache_dir)
    calls = []
    digest = RunSpec.digest

    def counting(spec):
        calls.append(spec.run_index)
        return digest(spec)

    monkeypatch.setattr(RunSpec, "digest", counting)
    records = _driven(specs, _double_seed, cache_dir=cache_dir)
    monkeypatch.undo()
    assert sorted(calls) == [0, 1, 2, 3]
    assert [r.cache_hit for r in records] == [warm] * 4
    # The journal keeps its name: <cache>/journal/<campaign digest>.jsonl.
    assert journal_path_for(cache_dir, campaign_digest(specs)).is_file()


def test_all_hole_campaign_is_labelled_from_its_specs(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "_execute_spec", _always_fail)
    prov = tmp_path / "prov.jsonl"
    campaign = run_campaign(
        _tiny_program, 4, "stock", 2,
        machine_factory=lambda: generic_smp(4),
        provenance_path=str(prov),
        supervise=SupervisorConfig(
            allow_partial=True,
            retry=RetryPolicy(deterministic_retries=0),
        ),
    )
    assert campaign.results == [] and campaign.holes == [0, 1]
    assert campaign.label == "eng"
    meta = json.loads((tmp_path / "prov.jsonl.meta.json").read_text())
    assert meta["bench"] == "eng"


# ---------------------------------------------------------------------------
# The real contract: a NAS campaign is byte-identical serial vs parallel.
# ---------------------------------------------------------------------------


def test_nas_campaign_parallel_matches_serial_byte_identical(tmp_path):
    serial_path = tmp_path / "serial.jsonl"
    parallel_path = tmp_path / "parallel.jsonl"
    serial = run_nas_campaign(
        "is", "A", "stock", 4, base_seed=3,
        provenance_path=str(serial_path), n_jobs=1,
    )
    parallel = run_nas_campaign(
        "is", "A", "stock", 4, base_seed=3,
        provenance_path=str(parallel_path), n_jobs=2,
    )
    assert serial_path.read_bytes() == parallel_path.read_bytes()
    assert serial.app_times_s() == parallel.app_times_s()
    assert list(serial.migrations()) == list(parallel.migrations())
    assert list(serial.context_switches()) == list(parallel.context_switches())
    assert serial.jobs == 1 and parallel.jobs == 2
