"""Edge-case and failure-injection tests for the cleaning engine.

The engine must degrade gracefully on pathological inputs — constant
columns, all-NULL columns, single rows, two-column tables — and its
per-cell result cache must be transparent: identical rows must receive
identical decisions, and structure edits must invalidate the cache.
"""

import random

import pytest

from repro.bayesnet.dag import DAG
from repro.constraints.builtin import NotNull
from repro.constraints.registry import UCRegistry
from repro.core.config import BCleanConfig
from repro.core.engine import BClean, clean_table
from repro.dataset.diff import cells_equal
from repro.dataset.schema import Schema
from repro.dataset.table import Table


def fd_table(n_rows=100, n_keys=5, seed=0):
    rng = random.Random(seed)
    schema = Schema.of("key:categorical", "value:categorical")
    mapping = {f"k{i}": f"v{i}" for i in range(n_keys)}
    rows = [[k, mapping[k]] for k in (rng.choice(list(mapping)) for _ in range(n_rows))]
    return Table.from_rows(schema, rows)


class TestPathologicalTables:
    def test_single_row_table(self):
        table = Table.from_rows(
            Schema.of("a:categorical", "b:categorical"), [["x", "y"]]
        )
        result = clean_table(table, BCleanConfig.pi())
        assert result.cleaned == table  # nothing else to prefer

    @pytest.mark.parametrize("chunk_rows", [None, 4])
    def test_empty_table_fits_and_cleans(self, chunk_rows):
        """A header-only table folds into empty sufficient statistics
        (one block or chunked) and cleans to nothing."""
        table = Table.from_rows(
            Schema.of("a:categorical", "b:categorical"), []
        )
        engine = BClean(BCleanConfig.pi()).fit(table, chunk_rows=chunk_rows)
        result = engine.clean()
        assert result.repairs == []
        assert result.cleaned.n_rows == 0

    def test_constant_column_untouched(self):
        schema = Schema.of("const:categorical", "var:categorical")
        rows = [["same", f"v{i % 3}"] for i in range(60)]
        table = Table.from_rows(schema, rows)
        result = clean_table(table, BCleanConfig.pi())
        assert all(
            result.cleaned.cell(i, "const") == "same" for i in range(60)
        )

    def test_all_null_column_survives(self):
        schema = Schema.of("a:categorical", "hole:categorical")
        rows = [[f"v{i % 4}", None] for i in range(40)]
        table = Table.from_rows(schema, rows)
        result = clean_table(table, BCleanConfig.pi())
        assert result.cleaned.n_rows == 40
        # with no observed values there is nothing to fill from
        assert all(
            result.cleaned.cell(i, "hole") is None for i in range(40)
        )

    def test_two_identical_columns(self):
        schema = Schema.of("a:categorical", "b:categorical")
        rows = [[f"v{i % 3}", f"v{i % 3}"] for i in range(60)]
        table = Table.from_rows(schema, rows)
        result = clean_table(table, BCleanConfig.pi())
        for i in range(60):
            assert result.cleaned.cell(i, "a") == result.cleaned.cell(i, "b")

    def test_every_mode_on_tiny_table(self):
        table = fd_table(n_rows=10)
        for factory in (BCleanConfig.basic, BCleanConfig.pi, BCleanConfig.pip):
            result = clean_table(table, factory())
            assert result.cleaned.n_rows == 10


class TestCacheTransparency:
    def test_identical_rows_get_identical_decisions(self):
        table = fd_table(n_rows=120, seed=1)
        # corrupt two rows with the *same* (key, value) signature
        table.set_cell(0, "value", "WRONG")
        table.set_cell(1, "value", "WRONG")
        key = table.cell(0, "key")
        table.set_cell(1, "key", key)

        engine = BClean(BCleanConfig.pi())
        engine.fit(table)
        result = engine.clean()
        assert cells_equal(
            result.cleaned.cell(0, "value"), result.cleaned.cell(1, "value")
        )

    def test_cache_hit_counts_in_diagnostics(self):
        table = fd_table(n_rows=200, seed=2)
        engine = BClean(BCleanConfig.pi())
        engine.fit(table)
        result = engine.clean()
        # 200 rows over 5 distinct signatures: the cache must be small
        assert 0 < result.diagnostics["cache_size"] < 200 * 2

    def test_set_network_invalidates_cache(self):
        table = fd_table(n_rows=100, seed=3)
        table.set_cell(0, "value", "WRONG")
        engine = BClean(BCleanConfig.pi())
        engine.fit(table)
        first = engine.clean()
        assert first.diagnostics["cache_size"] > 0

        # replace the structure with an empty DAG: decisions may change,
        # and the stale cache must not survive the edit
        empty = DAG(table.schema.names)
        engine.set_network(empty)
        second = engine.clean()
        assert second.diagnostics["n_edges"] == 0
        assert second.diagnostics["cache_size"] > 0  # rebuilt, not reused

    def test_reclean_same_engine_is_stable(self):
        table = fd_table(n_rows=80, seed=4)
        table.set_cell(5, "value", "WRONG")
        engine = BClean(BCleanConfig.pi())
        engine.fit(table)
        assert engine.clean().cleaned == engine.clean().cleaned


class TestCleanSeparateTable:
    def test_clean_unseen_table_with_fitted_model(self):
        """fit() on one sample, clean() another — the model must apply
        its statistics to fresh rows of the same schema."""
        train = fd_table(n_rows=150, seed=5)
        test = fd_table(n_rows=30, seed=6)
        test.set_cell(0, "value", "WRONG")

        engine = BClean(BCleanConfig.pi())
        engine.fit(train)
        result = engine.clean(test)
        assert result.cleaned.n_rows == 30
        truth = {f"k{i}": f"v{i}" for i in range(5)}
        assert result.cleaned.cell(0, "value") == truth[test.cell(0, "key")]


class TestConstraintInteraction:
    def test_all_candidates_vetoed_keeps_original(self):
        """If UCs reject every candidate (and the incumbent), the cell
        must keep its observed value rather than take a vetoed repair."""
        from repro.constraints.builtin import Pattern

        table = fd_table(n_rows=60, seed=7)
        table.set_cell(0, "value", "WRONG")
        registry = UCRegistry().add("value", Pattern("z+"))  # matches nothing
        engine = BClean(BCleanConfig.pi(), registry)
        engine.fit(table)
        result = engine.clean()
        assert result.cleaned.cell(0, "value") == "WRONG"

    def test_notnull_on_every_attr_fills_nulls(self):
        table = fd_table(n_rows=100, seed=8)
        table.set_cell(3, "value", None)
        registry = UCRegistry()
        for attr in table.schema.names:
            registry.add(attr, NotNull())
        engine = BClean(BCleanConfig.pi(), registry)
        engine.fit(table)
        result = engine.clean()
        assert result.cleaned.cell(3, "value") is not None
