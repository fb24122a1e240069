"""The sharded execution subsystem must be invisible in the results.

Every combination of worker backend (serial / thread / process) and
shard granularity must produce a ``CleaningResult`` byte-identical to
the serial single-shard columnar path — same repairs, bit-equal scores,
same work counters — which itself is decision-identical to the scalar
oracle (covered by test_engine_columnar_equivalence).  On top of the
end-to-end matrix, the planner, merge, snapshot pickling, and the
incremental foreign-table encoding get unit coverage.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.config import BCleanConfig, InferenceMode
from repro.core.engine import BClean
from repro.data.benchmark import load_benchmark
from repro.dataset.schema import Schema
from repro.dataset.table import Table
from repro.errors import CleaningError, SchemaError
from repro.exec import (
    ChunkView,
    FitState,
    Shard,
    ShardResult,
    get_backend,
    merge_shard_results,
    plan_shards,
)

BACKENDS = ("serial", "thread", "process")
SHARD_SIZES = (1, 2, 7)


def _repair_bytes(result):
    """The full, exact repair signature (no tolerance — byte identity)."""
    return [
        (r.row, r.attribute, r.old_value, r.new_value, r.old_score, r.new_score)
        for r in result.repairs
    ]


def _counter_sig(result):
    s = result.stats
    return (
        s.cells_total,
        s.cells_inspected,
        s.cells_skipped_pruning,
        s.candidates_evaluated,
        s.candidates_filtered_uc,
        s.repairs_made,
    )


@pytest.fixture(scope="module")
def hospital():
    return load_benchmark("hospital", n_rows=60, seed=0)


@pytest.fixture(scope="module")
def reference(hospital):
    """The serial columnar result every parallel run is pinned against."""
    engine = BClean(BCleanConfig.pi(), hospital.constraints)
    engine.fit(hospital.dirty)
    return engine.clean()


def _run(instance, mode=InferenceMode.PARTITIONED, **knobs):
    engine = BClean(
        BCleanConfig(mode=mode, **knobs), instance.constraints
    )
    engine.fit(instance.dirty)
    return engine.clean()


@pytest.mark.fast
@pytest.mark.parametrize("executor", BACKENDS)
@pytest.mark.parametrize("shard_size", SHARD_SIZES)
def test_backend_shard_matrix_byte_identical(hospital, reference, executor, shard_size):
    result = _run(
        hospital, executor=executor, n_jobs=2, shard_size=shard_size
    )
    assert result.diagnostics["columnar"] is True
    assert result.diagnostics["exec"]["executor"] == executor
    assert _repair_bytes(result) == _repair_bytes(reference)
    assert _counter_sig(result) == _counter_sig(reference)
    assert result.cleaned == reference.cleaned


@pytest.mark.parametrize("executor", ("thread", "process"))
def test_cost_balanced_planning_byte_identical(hospital, reference, executor):
    """Default (cost-balanced, no shard_size) planning with parallel
    backends must not change a single byte either."""
    result = _run(hospital, executor=executor, n_jobs=3)
    assert result.diagnostics["exec"]["n_shards"] >= 1
    assert _repair_bytes(result) == _repair_bytes(reference)


@pytest.mark.parametrize(
    "mode", (InferenceMode.BASIC, InferenceMode.PARTITIONED_PRUNED),
    ids=["basic", "pip"],
)
def test_process_backend_other_modes(hospital, mode):
    serial = _run(hospital, mode=mode)
    parallel = _run(hospital, mode=mode, executor="process", n_jobs=2, shard_size=7)
    assert _repair_bytes(parallel) == _repair_bytes(serial)
    assert _counter_sig(parallel) == _counter_sig(serial)


# -- foreign tables (incremental encoding) -------------------------------------


@pytest.fixture(scope="module")
def foreign_pair(hospital):
    """A foreign table with unseen values (plain, NULL, and null-like)."""
    foreign = hospital.dirty.copy()
    names = foreign.schema.names
    foreign.set_cell(3, names[1], "UNSEEN-VALUE-A")
    foreign.set_cell(9, names[1], "UNSEEN-VALUE-B")
    foreign.set_cell(5, names[2], None)
    foreign.set_cell(7, names[0], "null")
    return foreign


@pytest.mark.fast
@pytest.mark.parametrize("executor", BACKENDS)
def test_foreign_table_backends_match_scalar(hospital, foreign_pair, executor):
    engine = BClean(
        BCleanConfig.pi(executor=executor, n_jobs=2, shard_size=5),
        hospital.constraints,
    )
    engine.fit(hospital.dirty)
    result = engine.clean(foreign_pair)
    assert result.diagnostics["columnar"] is True
    assert result.diagnostics["exec"]["incremental_encoding"] is True

    oracle_engine = BClean(
        BCleanConfig.pi(use_columnar=False), hospital.constraints
    )
    oracle_engine.fit(hospital.dirty)
    oracle = oracle_engine.clean(foreign_pair)
    assert [
        (r.row, r.attribute, r.old_value, r.new_value) for r in result.repairs
    ] == [
        (r.row, r.attribute, r.old_value, r.new_value) for r in oracle.repairs
    ]
    for got, want in zip(result.repairs, oracle.repairs):
        assert got.old_score == pytest.approx(want.old_score, abs=1e-9)
        assert got.new_score == pytest.approx(want.new_score, abs=1e-9)
    assert _counter_sig(result) == _counter_sig(oracle)


def test_foreign_encoding_is_idempotent(hospital, foreign_pair):
    engine = BClean(BCleanConfig.pi(), hospital.constraints)
    engine.fit(hospital.dirty)
    first = engine._encoding.encode_table(foreign_pair)
    again = engine._encoding.encode_table(foreign_pair)
    assert np.array_equal(first, again)
    # Unseen values got codes beyond the fitted horizon, distinct per value.
    names = foreign_pair.schema.names
    col = first[:, 1]
    assert col[3] != col[9]
    # Seen cells keep their fitted codes.
    fitted_codes = engine._encoding.codes(names[0])
    assert first[0, 0] == fitted_codes[0]
    # Repeated cleans of the same foreign table stay identical.
    one = engine.clean(foreign_pair)
    two = engine.clean(foreign_pair)
    assert _repair_bytes(one) == _repair_bytes(two)


def test_foreign_encoding_null_like_flags(hospital, foreign_pair):
    engine = BClean(BCleanConfig.pi(), hospital.constraints)
    engine.fit(hospital.dirty)
    codes = engine._encoding.encode_table(foreign_pair)
    names = foreign_pair.schema.names
    null_mask = engine._encoding.vocab(names[0]).null_mask
    assert bool(null_mask[codes[7, 0]]) is True  # literal "null" string
    zip_mask = engine._encoding.vocab(names[2]).null_mask
    assert bool(zip_mask[codes[5, 2]]) is True  # real NULL


def test_foreign_encoding_rejects_schema_mismatch(hospital):
    engine = BClean(BCleanConfig.pi(), hospital.constraints)
    engine.fit(hospital.dirty)
    other = Table.from_rows(Schema.of("a:text", "b:text"), [["x", "y"]])
    with pytest.raises(SchemaError):
        engine._encoding.encode_table(other)
    # The engine routes such a table to the scalar path.
    assert engine._columnar_applicable(other) is False


def test_value_queries_survive_vocabulary_extension(hospital, foreign_pair):
    """After a foreign clean mints extended codes, value-level queries
    with those values (scalar fallback paths) must count 0, not crash
    (regression: IndexError in CooccurrenceIndex.count)."""
    instance = load_benchmark("hospital", n_rows=60, seed=0)
    engine = BClean(BCleanConfig.pip(), instance.constraints)
    engine.fit(instance.dirty)
    foreign = instance.dirty.copy()
    names = foreign.schema.names
    foreign.set_cell(3, names[1], "UNSEEN-VALUE-A")
    engine.clean(foreign)
    assert engine.cooc.count(names[1], "UNSEEN-VALUE-A") == 0
    # Mutate the fitted table to contain the now-interned value: the
    # scalar fallback (PIP tuple filter probes count()) must not crash.
    instance.dirty.set_cell(0, names[1], "UNSEEN-VALUE-A")
    result = engine.clean()
    assert result.diagnostics["columnar"] is False


@pytest.mark.parametrize("executor", BACKENDS)
def test_mutated_fitted_table_still_falls_back(hospital, executor):
    """A fitted table mutated after fit() fails the snapshot check and
    must take the scalar path under every backend."""
    instance = load_benchmark("hospital", n_rows=50, seed=0)
    engine = BClean(
        BCleanConfig.pi(executor=executor, n_jobs=2), instance.constraints
    )
    engine.fit(instance.dirty)
    instance.dirty.set_cell(0, instance.dirty.schema.names[0], "mutant")
    result = engine.clean()
    assert result.diagnostics["columnar"] is False


# -- snapshot pickling ---------------------------------------------------------


def test_fit_state_pickle_round_trip(hospital):
    """A pickled-and-restored FitState must reproduce every shard result
    exactly (the process backend's correctness contract).  The view is
    deliberately *not* re-pickled: per-chunk payloads are what the
    persistent session ships per dispatch, the snapshot only once."""
    engine = BClean(BCleanConfig.pi(), hospital.constraints)
    engine.fit(hospital.dirty)
    enc = engine._encoding
    names = hospital.dirty.schema.names
    codes = enc.matrix()
    uniq_rows, first = np.unique(codes, axis=0, return_index=True)[:2]
    state = FitState(
        engine.config,
        enc,
        engine.cooc,
        engine.comp,
        engine.pruner,
        engine._columnar_scorer(),
        engine.subnets,
        names,
        {a: engine._domain_codes(a) for a in names},
    )
    view = ChunkView(
        uniq_rows,
        engine.cooc.row_weights[first],
        {a: enc.vocab(a).null_mask for a in names},
        {a: engine._uc_code_mask(a) for a in names},
    )
    shard = Shard(0, 1, names[1], np.arange(min(9, len(uniq_rows))))
    direct = state.run_shard(shard, view)
    restored = pickle.loads(pickle.dumps(state))
    rerun = restored.run_shard(shard, pickle.loads(pickle.dumps(view)))
    assert np.array_equal(direct.decided, rerun.decided)
    assert np.array_equal(direct.incumbent_scores, rerun.incumbent_scores)
    assert np.array_equal(direct.best_scores, rerun.best_scores)
    assert direct.candidates_evaluated == rerun.candidates_evaluated
    # The restored encoding dropped its source-table reference.
    assert restored.encoding._source is None


# -- planner -------------------------------------------------------------------


def _work(costs_by_col):
    return [
        (j, f"a{j}", np.arange(len(costs)), np.asarray(costs, dtype=np.float64))
        for j, costs in enumerate(costs_by_col)
    ]


class TestPlanner:
    def test_shard_size_honoured(self):
        plan = plan_shards(_work([[1.0] * 10]), n_shards_hint=4, shard_size=3)
        assert [len(s.uids) for s in plan.shards] == [3, 3, 3, 1]
        assert plan.n_competitions == 10

    def test_cost_balanced_cuts(self):
        # One expensive competition among cheap ones: the expensive one
        # should not drag a long cheap tail into its shard.
        costs = [100.0] + [1.0] * 99
        plan = plan_shards(_work([costs]), n_shards_hint=2)
        assert plan.n_shards >= 2
        assert plan.n_competitions == 100
        heaviest = max(plan.shards, key=lambda s: s.cost)
        assert len(heaviest.uids) < 100

    def test_deterministic(self):
        work = _work([[3.0, 1.0, 4.0, 1.0, 5.0], [9.0, 2.0, 6.0]])
        a = plan_shards(work, n_shards_hint=3)
        b = plan_shards(work, n_shards_hint=3)
        assert [s.uids.tolist() for s in a.shards] == [
            s.uids.tolist() for s in b.shards
        ]
        assert [s.shard_id for s in a.shards] == list(range(a.n_shards))

    def test_serial_hint_one_shard_per_attribute(self):
        plan = plan_shards(_work([[1.0] * 8, [1.0] * 8]), n_shards_hint=1)
        assert plan.n_shards == 2
        assert all(len(s.uids) == 8 for s in plan.shards)

    def test_empty_attribute_skipped(self):
        plan = plan_shards(_work([[], [1.0, 1.0]]), n_shards_hint=1)
        assert plan.n_shards == 1
        assert plan.shards[0].column == 1

    def test_covers_every_uid_exactly_once(self):
        costs = list(np.linspace(1, 50, 37))
        plan = plan_shards(_work([costs]), n_shards_hint=5)
        seen = np.concatenate([s.uids for s in plan.shards])
        assert sorted(seen.tolist()) == list(range(37))


# -- merge ---------------------------------------------------------------------


class TestMerge:
    def _result(self, shard_id, column, uids, decided):
        n = len(uids)
        return ShardResult(
            shard_id,
            column,
            np.asarray(uids),
            np.asarray(decided, dtype=np.int64),
            np.zeros(n),
            np.ones(n),
            candidates_evaluated=n,
            candidates_filtered_uc=0,
        )

    def test_scatter_and_counters(self):
        merged = merge_shard_results(
            [
                self._result(0, 0, [0, 2], [5, -1]),
                self._result(1, 0, [1], [7]),
            ],
            n_uniq=3,
            columns=[0],
        )
        assert merged.decided[0].tolist() == [5, 7, -1]
        assert merged.candidates_evaluated == 3
        assert merged.n_competitions == 3

    def test_overlap_rejected(self):
        with pytest.raises(CleaningError, match="overlaps"):
            merge_shard_results(
                [
                    self._result(0, 0, [0, 1], [1, 1]),
                    self._result(1, 0, [1], [2]),
                ],
                n_uniq=2,
                columns=[0],
            )

    def test_unplanned_column_rejected(self):
        with pytest.raises(CleaningError, match="unplanned"):
            merge_shard_results(
                [self._result(0, 3, [0], [1])], n_uniq=1, columns=[0]
            )


# -- backends ------------------------------------------------------------------


def test_get_backend_rejects_unknown():
    with pytest.raises(CleaningError, match="unknown executor"):
        get_backend("gpu", 2)


def test_config_validates_executor_knobs():
    with pytest.raises(CleaningError):
        BCleanConfig(executor="warp")
    with pytest.raises(CleaningError):
        BCleanConfig(n_jobs=0)
    with pytest.raises(CleaningError):
        BCleanConfig(shard_size=0)
