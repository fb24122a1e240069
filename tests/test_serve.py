"""Serving must amortise, never alter.

The resident service answers N concurrent ``submit()`` cleans from one
engine-held warm session: across every request the process pool is
created once, the fit-statistics snapshot ships once, and repeated row
signatures are answered from the session's competition cache — while
each request's :class:`~repro.core.repairs.CleaningResult` stays
byte-identical to a standalone serial ``clean()`` of the same rows.
The model registry extends the contract across processes: save →
reload → serve must reproduce the in-memory engine's repairs exactly,
minted foreign codes included.  On top of the end-to-end matrix: the
micro-batching plumbing units (batch cutting, concatenation, repair
demultiplexing), input forms, and the service/session lifecycle.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.config import BCleanConfig
from repro.core.engine import BClean
from repro.core.repairs import Repair
from repro.data.benchmark import load_benchmark
from repro.dataset.table import Table
from repro.errors import CleaningError, ModelFormatError
from repro.serve import (
    BCleanService,
    CleanRequest,
    ModelRegistry,
    concat_tables,
    schema_fingerprint,
    split_results,
    take_batch,
)

pytestmark = pytest.mark.fast

N_REQUESTS = 10
ROWS_PER_REQUEST = 6


def _sig(result):
    """The full, exact repair signature (no tolerance — byte identity)."""
    return [
        (r.row, r.attribute, r.old_value, r.new_value, r.old_score, r.new_score)
        for r in result.repairs
    ]


@pytest.fixture(scope="module")
def hospital():
    return load_benchmark("hospital", n_rows=60, seed=0)


@pytest.fixture(scope="module")
def request_tables(hospital):
    """N small request payloads: consecutive slices of the dirty rows
    (together they are exactly the fitted table, so signatures recur
    across rounds)."""
    dirty = hospital.dirty
    return [
        dirty.slice_rows(i * ROWS_PER_REQUEST, (i + 1) * ROWS_PER_REQUEST)
        for i in range(N_REQUESTS)
    ]


@pytest.fixture(scope="module")
def reference_engine(hospital):
    eng = BClean(BCleanConfig.pip(), hospital.constraints)
    eng.fit(hospital.dirty)
    return eng


@pytest.fixture(scope="module")
def reference_results(reference_engine, request_tables):
    """What a standalone serial ``clean()`` of each request returns —
    the pin every served result is compared against."""
    return [reference_engine.clean(t) for t in request_tables]


def _assert_identical(served, references):
    for result, reference in zip(served, references):
        assert _sig(result) == _sig(reference)
        assert result.cleaned == reference.cleaned
        assert result.stats.repairs_made == reference.stats.repairs_made
        assert result.stats.cells_total == reference.stats.cells_total


# -- the serving contract: concurrent submits, byte-identical ------------------


def test_concurrent_submits_byte_identical(
    hospital, request_tables, reference_results
):
    engine = BClean(BCleanConfig.pip(), hospital.constraints)
    engine.fit(hospital.dirty)
    with BCleanService(engine) as service:
        with ThreadPoolExecutor(max_workers=N_REQUESTS) as pool:
            served = list(pool.map(service.submit, request_tables))
        diag = service.diagnostics()
    _assert_identical(served, reference_results)
    assert diag["requests"] == N_REQUESTS
    assert 1 <= diag["batches"] <= N_REQUESTS
    assert diag["rows"] == N_REQUESTS * ROWS_PER_REQUEST
    serve = served[0].diagnostics["serve"]
    assert {"request_id", "batch_id", "batch_requests", "batch_rows"} <= set(
        serve
    )


def test_process_service_one_pool_one_snapshot_cache_hits(
    hospital, request_tables, reference_results
):
    """The acceptance pin: N concurrent process-backend cleans share
    one pool, one snapshot ship, and hit the cache on repeated
    signatures — with every result byte-identical to serial."""
    engine = BClean(
        BCleanConfig.pip(executor="process", n_jobs=2), hospital.constraints
    )
    engine.fit(hospital.dirty)
    with BCleanService(engine) as service:
        with ThreadPoolExecutor(max_workers=N_REQUESTS) as pool:
            round_one = list(pool.map(service.submit, request_tables))
        # same payloads again: every signature recurs -> cache answers
        with ThreadPoolExecutor(max_workers=N_REQUESTS) as pool:
            round_two = list(pool.map(service.submit, request_tables))
        diag = service.diagnostics()
        if diag["flags"].get("process_fallback"):  # pragma: no cover
            pytest.skip("host cannot create process pools")
    _assert_identical(round_one, reference_results)
    _assert_identical(round_two, reference_results)
    assert diag["requests"] == 2 * N_REQUESTS
    assert diag["pools_created"] == 1
    assert diag["snapshot_ships"] == 1
    assert diag["cache_hits"] > 0
    serve = round_two[0].diagnostics["serve"]
    assert serve["pools_created"] == 1
    assert serve["snapshot_ships"] == 1


def test_serve_matches_direct_resident_clean(hospital, request_tables):
    """Submitting through the service equals cleaning the same rows
    directly on an engine with an open resident session."""
    engine = BClean(BCleanConfig.pip(), hospital.constraints)
    engine.fit(hospital.dirty)
    engine.open_session()
    try:
        direct = [engine.clean(t) for t in request_tables]
    finally:
        engine.close_session()
    engine.fit(hospital.dirty)  # fresh fit: fit() closes any session
    with BCleanService(engine) as service:
        served = [service.submit(t) for t in request_tables]
    _assert_identical(served, direct)


# -- registry: save -> reload -> serve -----------------------------------------


def test_registry_fit_or_load_roundtrip(
    hospital, request_tables, reference_results, tmp_path
):
    registry = ModelRegistry(tmp_path / "models")
    config = BCleanConfig.pip()
    engine, loaded = registry.fit_or_load(
        hospital.dirty, config=config, constraints=hospital.constraints
    )
    assert loaded is False
    names = hospital.dirty.schema.names
    assert registry.contains(names)
    assert registry.path_for(names).parent.name == schema_fingerprint(names)

    # a second bootstrap skips the fit and reloads the saved model —
    # and the caller's (scheduling) config must win over the saved one
    reloaded, loaded = registry.fit_or_load(
        hospital.dirty,
        config=BCleanConfig.pip(executor="thread", n_jobs=2),
        constraints=hospital.constraints,
    )
    assert loaded is True
    assert reloaded.config.executor == "thread"
    with BCleanService(reloaded) as service:
        with ThreadPoolExecutor(max_workers=N_REQUESTS) as pool:
            served = list(pool.map(service.submit, request_tables))
    _assert_identical(served, reference_results)


def test_registry_reload_preserves_minted_codes(
    hospital, reference_engine, tmp_path
):
    """Satellite pin: a model saved *after* foreign cleans minted
    unseen codes reloads to byte-identical repairs on that same foreign
    table — the encoding rider replays minted codes exactly."""
    foreign = hospital.dirty.copy()
    names = foreign.schema.names
    foreign.set_cell(3, names[1], "UNSEEN-VALUE-A")
    foreign.set_cell(9, names[1], "UNSEEN-VALUE-B")
    foreign.set_cell(5, names[2], None)

    engine = BClean(BCleanConfig.pip(), hospital.constraints)
    engine.fit(hospital.dirty)
    before = engine.clean(foreign)  # mints codes for the unseen values

    registry = ModelRegistry(tmp_path / "models")
    registry.save(engine)
    reloaded = registry.load(names, constraints=hospital.constraints)
    after = reloaded.clean(foreign)
    assert _sig(after) == _sig(before)
    assert after.cleaned == before.cleaned
    # and the fitted table itself round-tripped cell-for-cell
    assert reloaded.table == engine.table


def test_registry_load_missing_model_raises(tmp_path):
    registry = ModelRegistry(tmp_path / "empty")
    with pytest.raises(CleaningError, match="no registry model"):
        registry.load(["a", "b"])


@pytest.fixture
def saved_registry(hospital, reference_engine, tmp_path):
    registry = ModelRegistry(tmp_path / "models")
    path = registry.save(reference_engine)
    return registry, path


def test_registry_failed_save_keeps_previous_model(
    hospital, reference_engine, saved_registry, monkeypatch
):
    """save() writes a temp file and os.replace()s it over model.json:
    a save that dies at the swap leaves the previous model loadable and
    no temp file behind."""
    registry, path = saved_registry
    before = path.read_bytes()

    def broken_replace(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(os, "replace", broken_replace)
    with pytest.raises(OSError, match="disk gone"):
        registry.save(reference_engine)
    monkeypatch.undo()

    assert path.read_bytes() == before
    assert sorted(p.name for p in path.parent.iterdir()) == [path.name]
    names = hospital.dirty.schema.names
    reloaded = registry.load(names, constraints=hospital.constraints)
    assert reloaded.table == reference_engine.table


def test_registry_rejects_unknown_format_version(hospital, saved_registry):
    registry, path = saved_registry
    names = hospital.dirty.schema.names
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["version"] = 2
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ModelFormatError, match="format version 2"):
        registry.load(names, constraints=hospital.constraints)
    del payload["version"]
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ModelFormatError, match="no format version"):
        registry.load(names, constraints=hospital.constraints)


def test_registry_rejects_truncated_model(hospital, saved_registry):
    registry, path = saved_registry
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: len(text) // 2], encoding="utf-8")
    with pytest.raises(ModelFormatError, match="truncated"):
        registry.load(
            hospital.dirty.schema.names, constraints=hospital.constraints
        )


# -- micro-batching plumbing units ---------------------------------------------


def _requests(sizes, schema, rows):
    out = deque()
    offset = 0
    for i, size in enumerate(sizes):
        out.append(
            CleanRequest(i, Table.from_rows(schema, rows[offset : offset + size]))
        )
        offset += size
    return out


def test_take_batch_cuts_on_max_rows(hospital):
    rows = hospital.dirty.to_rows()
    pending = _requests([4, 4, 4, 4], hospital.dirty.schema, rows)
    batch = take_batch(pending, max_rows=8)
    assert [r.request_id for r in batch] == [0, 1]
    assert [r.request_id for r in pending] == [2, 3]
    # an oversized single request still forms its own batch
    big = _requests([50], hospital.dirty.schema, rows)
    assert [r.request_id for r in take_batch(big, max_rows=8)] == [0]
    assert take_batch(deque(), max_rows=8) == []


def test_concat_split_roundtrip(hospital):
    """Demux is the exact inverse of concat: slices come back
    row-identical and repairs re-base onto request-local indices."""
    dirty = hospital.dirty
    requests = [
        CleanRequest(0, dirty.slice_rows(0, 5)),
        CleanRequest(1, dirty.slice_rows(5, 12)),
        CleanRequest(2, dirty.slice_rows(12, 15)),
    ]
    combined = concat_tables(dirty.schema, [r.table for r in requests])
    assert combined == dirty.slice_rows(0, 15)
    name = dirty.schema.names[0]
    repairs = [
        Repair(1, name, "a", "b", 0.1, 0.9),
        Repair(4, name, "a", "b", 0.1, 0.9),
        Repair(6, name, "a", "b", 0.1, 0.9),
        Repair(14, name, "a", "b", 0.1, 0.9),
    ]
    split = split_results(requests, combined, repairs)
    assert [t.n_rows for t, _ in split] == [5, 7, 3]
    assert [[r.row for r in own] for _, own in split] == [[1, 4], [1], [2]]
    for (sliced, _), request in zip(split, requests):
        assert sliced == request.table


# -- input forms and lifecycle -------------------------------------------------


def test_submit_input_forms(hospital, request_tables, reference_results):
    engine = BClean(BCleanConfig.pip(), hospital.constraints)
    engine.fit(hospital.dirty)
    table = request_tables[0]
    names = table.schema.names
    as_rows = table.to_rows()
    as_dicts = [dict(zip(names, row)) for row in as_rows]
    with BCleanService(engine) as service:
        from_table = service.submit(table)
        from_rows = service.submit(as_rows)
        from_dicts = service.submit(as_dicts)
        empty = service.submit([])
        with pytest.raises(CleaningError, match="does not match"):
            wrong = Table.from_rows(
                hospital.dirty.schema.rename(
                    {names[0]: "not-a-fitted-attribute"}
                ),
                as_rows,
            )
            service.submit(wrong)
    _assert_identical(
        [from_table, from_rows, from_dicts], [reference_results[0]] * 3
    )
    assert empty.cleaned.n_rows == 0
    assert empty.repairs == []


def test_service_close_lifecycle(hospital):
    engine = BClean(BCleanConfig.pip(), hospital.constraints)
    engine.fit(hospital.dirty)
    service = BCleanService(engine)
    session = service.session
    assert engine.resident_session is session
    service.submit(hospital.dirty.slice_rows(0, 3))
    service.close()
    assert service.closed
    assert session.closed  # service ref + engine ref both dropped
    assert engine.resident_session is None
    service.close()  # idempotent
    with pytest.raises(CleaningError, match="closed"):
        service.submit(hospital.dirty.slice_rows(0, 3))


def test_service_can_leave_engine_session_open(hospital):
    engine = BClean(BCleanConfig.pip(), hospital.constraints)
    engine.fit(hospital.dirty)
    with BCleanService(engine, close_session_on_exit=False) as service:
        session = service.session
        service.submit(hospital.dirty.slice_rows(0, 3))
    assert not session.closed  # the engine's reference keeps it warm
    assert engine.resident_session is session
    engine.close_session()
    assert session.closed


def test_linger_coalesces_concurrent_submits(hospital, request_tables):
    """With a generous linger, requests racing in together land in few
    batches (not one per request) — and per-request results still come
    back correctly demultiplexed."""
    engine = BClean(BCleanConfig.pip(), hospital.constraints)
    engine.fit(hospital.dirty)
    barrier = threading.Barrier(N_REQUESTS)

    def submit(table):
        barrier.wait()
        return service.submit(table)

    with BCleanService(engine, linger_seconds=0.05) as service:
        with ThreadPoolExecutor(max_workers=N_REQUESTS) as pool:
            served = list(pool.map(submit, request_tables))
        diag = service.diagnostics()
    assert diag["requests"] == N_REQUESTS
    assert diag["batches"] < N_REQUESTS
    for table, result in zip(request_tables, served):
        assert result.cleaned.n_rows == table.n_rows
        assert result.diagnostics["serve"]["batch_requests"] >= 1


def test_timed_out_submit_never_reaches_a_batch(hospital, request_tables):
    """A submit() that times out withdraws its request: held behind a
    busy batcher, it must never be cleaned in a later tick."""
    engine = BClean(BCleanConfig.pip(), hospital.constraints)
    engine.fit(hospital.dirty)
    service = BCleanService(engine, linger_seconds=0.0)
    batched: list[list[int]] = []
    entered, release = threading.Event(), threading.Event()
    run_batch = service._run_batch

    def held_run_batch(requests):
        batched.append([r.request_id for r in requests])
        entered.set()
        assert release.wait(30)
        run_batch(requests)

    service._run_batch = held_run_batch
    with ThreadPoolExecutor(max_workers=1) as pool:
        first = pool.submit(service.submit, request_tables[0])
        assert entered.wait(30)  # the batcher now holds request 0
        with pytest.raises(CleaningError, match="timed out"):
            service.submit(request_tables[1], timeout=0.05)
        assert not service._pending
        release.set()
        first.result(timeout=30)
    service.submit(request_tables[2])
    service.close()
    assert batched == [[0], [2]]
