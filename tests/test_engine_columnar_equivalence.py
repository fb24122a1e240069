"""The columnar fast path must be decision-identical to the scalar oracle.

The engine keeps two cleaning paths: the original per-cell dict walk
(``use_columnar=False``, the reference) and the columnar path (integer
codes, batched blanket scoring, deduplicated competitions).  These tests
run both over real benchmark samples in every inference mode and demand
*identical* repair lists — same cells, same values, scores within 1e-9 —
plus matching work counters, so the fast path can never drift from the
semantics the paper reproduction is tested against.
"""

from __future__ import annotations

import pytest

from repro.core.composition import AttributeComposition
from repro.core.config import BCleanConfig, InferenceMode
from repro.core.engine import BClean
from repro.data.benchmark import load_benchmark

SAMPLES = (("hospital", 80), ("flights", 100))
MODES = tuple(InferenceMode)


def run_both(dataset: str, n_rows: int, mode: InferenceMode):
    instance = load_benchmark(dataset, n_rows=n_rows, seed=0)
    results = {}
    for columnar in (False, True):
        config = BCleanConfig(mode=mode, use_columnar=columnar)
        engine = BClean(config, instance.constraints)
        engine.fit(instance.dirty)
        result = engine.clean()
        assert result.diagnostics["columnar"] is columnar
        results[columnar] = result
    return results[False], results[True]


@pytest.mark.fast
@pytest.mark.parametrize("dataset,n_rows", SAMPLES)
@pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
def test_identical_repairs_and_scores(dataset, n_rows, mode):
    scalar, columnar = run_both(dataset, n_rows, mode)

    assert [
        (r.row, r.attribute, r.old_value, r.new_value) for r in scalar.repairs
    ] == [
        (r.row, r.attribute, r.old_value, r.new_value) for r in columnar.repairs
    ]
    for s, c in zip(scalar.repairs, columnar.repairs):
        assert s.old_score == pytest.approx(c.old_score, abs=1e-9)
        assert s.new_score == pytest.approx(c.new_score, abs=1e-9)
    assert scalar.cleaned == columnar.cleaned


@pytest.mark.fast
@pytest.mark.parametrize("dataset,n_rows", SAMPLES)
@pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
def test_identical_work_counters(dataset, n_rows, mode):
    scalar, columnar = run_both(dataset, n_rows, mode)
    for field in (
        "cells_total",
        "cells_inspected",
        "cells_skipped_pruning",
        "candidates_evaluated",
        "candidates_filtered_uc",
        "repairs_made",
    ):
        assert getattr(scalar.stats, field) == getattr(
            columnar.stats, field
        ), field


def test_merged_composition_falls_back_to_scalar():
    """Merged-node compositions are outside the coded contract; the
    engine must route them through the oracle, not crash."""
    instance = load_benchmark("flights", n_rows=60, seed=0)
    names = instance.dirty.schema.names
    composition = AttributeComposition(names)
    composition.merge([names[2], names[3]])
    engine = BClean(BCleanConfig.pi(), instance.constraints)
    engine.fit(instance.dirty, composition=composition)
    result = engine.clean()
    assert result.diagnostics["columnar"] is False
    assert result.stats.cells_total == instance.dirty.n_cells


def test_mutated_fitted_table_falls_back_to_scalar():
    """Mutating the fitted table between fit() and clean() invalidates
    the interning snapshot; the engine must detect it and read the live
    cells through the scalar path — never emit a repair whose old and
    new value are the same cell."""
    instance = load_benchmark("hospital", n_rows=60, seed=0)
    dirty = instance.dirty
    engine = BClean(BCleanConfig.pi(), instance.constraints)
    engine.fit(dirty)
    reference = engine.clean()
    assert reference.diagnostics["columnar"] is True
    assert reference.repairs, "fixture must propose at least one repair"

    # Pre-apply the engine's own first repair by hand, then re-clean.
    first = reference.repairs[0]
    dirty.set_cell(first.row, first.attribute, first.new_value)
    result = engine.clean()
    assert result.diagnostics["columnar"] is False
    assert (first.row, first.attribute) not in {
        (r.row, r.attribute) for r in result.repairs
    }
    for r in result.repairs:
        assert r.old_value != r.new_value


@pytest.mark.fast
def test_foreign_table_stays_columnar_and_matches_scalar():
    """Cleaning a table other than the fitted one stays on the fast path
    through incremental encoding and must match the scalar oracle."""
    instance = load_benchmark("hospital", n_rows=60, seed=0)
    engine = BClean(BCleanConfig.pi(), instance.constraints)
    engine.fit(instance.dirty)
    other = instance.dirty.copy()
    result = engine.clean(other)
    assert result.diagnostics["columnar"] is True
    assert result.diagnostics["exec"]["incremental_encoding"] is True
    assert result.stats.cells_total == other.n_cells

    oracle_engine = BClean(
        BCleanConfig.pi(use_columnar=False), instance.constraints
    )
    oracle_engine.fit(instance.dirty)
    oracle = oracle_engine.clean(other)
    assert [
        (r.row, r.attribute, r.old_value, r.new_value) for r in result.repairs
    ] == [
        (r.row, r.attribute, r.old_value, r.new_value) for r in oracle.repairs
    ]
    for got, want in zip(result.repairs, oracle.repairs):
        assert got.old_score == pytest.approx(want.old_score, abs=1e-9)
        assert got.new_score == pytest.approx(want.new_score, abs=1e-9)


def test_foreign_table_larger_than_fitted():
    """Per-row confidence weights belong to the fitted table; cleaning a
    *longer* foreign table with constraints active must not index past
    them (regression: IndexError in the scalar fallback)."""
    instance = load_benchmark("hospital", n_rows=40, seed=0)
    engine = BClean(BCleanConfig.pi(), instance.constraints)
    engine.fit(instance.dirty)
    assert engine.confidences is not None
    bigger = load_benchmark("hospital", n_rows=70, seed=0).dirty
    result = engine.clean(bigger)
    assert result.stats.cells_total == bigger.n_cells


def test_id_like_contexts_stay_sparse():
    """Near-unique (id-like) context values are each probed by a single
    competition; the co-occurrence index must keep probing them at pool
    size instead of densifying a card-sized profile per distinct value."""
    from repro.dataset.schema import Schema
    from repro.dataset.table import Table

    n = 300
    rows = [[f"id{i}", f"code{i}", f"grp{i % 3}"] for i in range(n)]
    table = Table.from_rows(Schema.of("a:text", "b:text", "c:categorical"), rows)
    engine = BClean(BCleanConfig.pi())
    engine.fit(table)
    engine.clean()
    cached_cells = sum(
        sum(len(p) for p in stats.count_profiles.values())
        + sum(len(p) for p in (stats._csr_entries or ())[2:])
        for stats in engine.cooc._pair.values()
    )
    # Nothing densifies per context: besides count profiles (which only
    # the baselines build), the kernel keeps one CSR-aligned raw and corr
    # array per pair, one entry per stored pair (≤ n each).
    assert cached_cells < 30 * (n + 2), cached_cells
