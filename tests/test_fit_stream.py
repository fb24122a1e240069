"""Streaming out-of-core fit: byte-identity, properties, incremental refit.

The streamed fit (``fit(chunk_rows=...)`` / ``fit_csv``) folds row
blocks into mergeable :class:`~repro.exec.fit_stream.SuffStats` and must
reproduce the whole-table fit **bit for bit**: the same vocabularies,
the same DAG, the same CPT dict state (values *and* insertion order),
and therefore the same repairs — at every chunk size and boundary
placement, for streams with NULLs and values first seen mid-stream.
The incremental half rides the same accumulator: ``fit(A + B)`` must
equal ``fit(A)`` followed by ``fit_update(B)``.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bayesnet.model import DiscreteBayesNet
from repro.core.config import BCleanConfig
from repro.core.engine import BClean
from repro.data.errors import ErrorInjector
from repro.dataset.io import read_csv, write_csv
from repro.dataset.schema import Schema
from repro.dataset.table import Table, cell_key
from repro.errors import CleaningError, SchemaError
from repro.exec import AUTO_FIT_COST_THRESHOLD, SuffStats
from repro.exec.fit_stream import (
    estimate_stream_fit_cost,
    iter_table_chunks,
    suffstats_from_csv,
    suffstats_from_table,
    weighted_marginal_counts,
)
from repro.exec.planner import extrapolate_stream_cost
from repro.serve.registry import ModelRegistry

pytestmark = pytest.mark.fast


# -- fixtures / helpers --------------------------------------------------------


def build_dirty_table(seed: int = 0, n_rows: int = 160) -> Table:
    """An FD-structured table with planted errors — enough signal for a
    non-trivial DAG, small enough to fit at every chunk size quickly."""
    rng = random.Random(seed)
    schema = Schema.of(
        "key:categorical", "value:categorical", "extra:categorical"
    )
    mapping = {f"k{i}": f"v{i}" for i in range(6)}
    rows = [
        [k := rng.choice(list(mapping)), mapping[k], rng.choice("pqr")]
        for _ in range(n_rows)
    ]
    clean = Table.from_rows(schema, rows)
    return ErrorInjector(rate=0.12, seed=seed + 1).inject(clean).dirty


def _ordered(d):
    """A dict as an order-sensitive nested structure — ``dict.__eq__``
    ignores insertion order, but the CPT entry walks do not."""
    return [
        (k, _ordered(v) if isinstance(v, dict) else v) for k, v in d.items()
    ]


def assert_same_network(a: DiscreteBayesNet, b: DiscreteBayesNet) -> None:
    """Bit-level network identity: DAG edges, CPT dict state, and the
    first-appearance insertion order of every counts dict."""
    assert sorted(a.dag.edges()) == sorted(b.dag.edges())
    assert set(a.cpts) == set(b.cpts)
    for node in a.cpts:
        ca, cb = a.cpts[node], b.cpts[node]
        assert ca.parent_names == cb.parent_names
        assert ca._n == cb._n
        assert _ordered(ca._marginal) == _ordered(cb._marginal)
        assert _ordered(ca._config_totals) == _ordered(cb._config_totals)
        assert _ordered(ca._config_counts) == _ordered(cb._config_counts)


def repair_tuples(result):
    return [
        (r.row, r.attribute, r.old_value, r.new_value, r.old_score, r.new_score)
        for r in result.repairs
    ]


# -- whole-table vs chunked identity -------------------------------------------


class TestChunkedFitIdentity:
    @pytest.fixture(scope="class")
    def dirty(self):
        return build_dirty_table()

    @pytest.fixture(scope="class")
    def whole(self, dirty):
        engine = BClean(BCleanConfig.pi(structure="hillclimb"))
        engine.fit(dirty)
        return engine, engine.clean()

    @pytest.mark.parametrize("chunk_rows", [7, 64, 256])
    def test_fit_chunk_rows_identity(self, dirty, whole, chunk_rows):
        base_engine, base = whole
        engine = BClean(BCleanConfig.pi(structure="hillclimb"))
        engine.fit(dirty, chunk_rows=chunk_rows)
        assert_same_network(base_engine.bn, engine.bn)
        result = engine.clean()
        assert repair_tuples(result) == repair_tuples(base)
        assert result.cleaned == base.cleaned
        stream = engine._fit_diag["stream_fit"]
        assert stream["n_rows"] == dirty.n_rows
        assert stream["n_chunks"] == -(-dirty.n_rows // chunk_rows)

    def test_config_fit_chunk_rows_routes_fit(self, dirty, whole):
        base_engine, base = whole
        engine = BClean(
            BCleanConfig.pi(structure="hillclimb", fit_chunk_rows=32)
        )
        engine.fit(dirty)
        assert "stream_fit" in engine._fit_diag
        assert_same_network(base_engine.bn, engine.bn)
        assert repair_tuples(engine.clean()) == repair_tuples(base)

    @pytest.mark.parametrize("structure", ["mmhc", "chowliu", "pc"])
    def test_every_structure_learner_chunk_identity(self, dirty, structure):
        base = BClean(BCleanConfig.pi(structure=structure))
        base.fit(dirty)
        chunked = BClean(BCleanConfig.pi(structure=structure))
        chunked.fit(dirty, chunk_rows=48)
        assert_same_network(base.bn, chunked.bn)

    def test_merged_composition_rejects_chunked_fit(self, dirty):
        from repro.core.composition import AttributeComposition

        composition = AttributeComposition(dirty.schema.names)
        composition.merge(["key", "value"])
        engine = BClean(BCleanConfig.pi(structure="hillclimb"))
        with pytest.raises(CleaningError, match="singleton"):
            engine.fit(dirty, chunk_rows=32, composition=composition)


class TestCsvFitIdentity:
    @pytest.fixture(scope="class")
    def csv_case(self, tmp_path_factory):
        dirty = build_dirty_table(seed=5)
        src = tmp_path_factory.mktemp("fitcsv") / "train.csv"
        write_csv(dirty, src)
        base = BClean(BCleanConfig.pi(structure="hillclimb"))
        base.fit(read_csv(src))
        return dirty, src, base

    @pytest.mark.parametrize("chunk_rows", [256, 1024])
    def test_fit_csv_identity(self, csv_case, tmp_path, chunk_rows):
        dirty, src, base = csv_case
        engine = BClean(BCleanConfig.pi(structure="hillclimb"))
        engine.fit_csv(src, chunk_rows=chunk_rows)
        assert engine._stream_fitted
        assert_same_network(base.bn, engine.bn)
        # the struct table holds only the distinct signatures
        assert engine.table.n_rows == engine._suffstats.n_distinct
        out_a = tmp_path / f"base_{chunk_rows}.csv"
        out_b = tmp_path / f"stream_{chunk_rows}.csv"
        ra = base.clean_csv(src, out_a)
        rb = engine.clean_csv(src, out_b)
        assert repair_tuples(ra) == repair_tuples(rb)
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_fit_csv_small_chunks_identity(self, csv_case, tmp_path):
        dirty, src, base = csv_case
        engine = BClean(BCleanConfig.pi(structure="hillclimb"))
        engine.fit_csv(src, chunk_rows=13)
        assert_same_network(base.bn, engine.bn)

    def test_streamed_fdx_needs_reservoir(self, csv_case):
        _, src, _ = csv_case
        engine = BClean(
            BCleanConfig.pi(structure="fdx", fit_reservoir_rows=0)
        )
        with pytest.raises(CleaningError, match="reservoir"):
            engine.fit_csv(src, chunk_rows=32)


# -- SuffStats properties ------------------------------------------------------


def build_stream_table(seed: int, n_rows: int) -> Table:
    """Random rows over a wide alphabet with NULLs and null-like strings
    mixed in — splitting it anywhere makes later chunks mint codes."""
    rng = random.Random(seed)
    schema = Schema.of("a:categorical", "b:categorical", "c:categorical")
    alphabet = [f"v{i}" for i in range(9)] + [None, "null", ""]
    rows = [[rng.choice(alphabet) for _ in range(3)] for _ in range(n_rows)]
    return Table.from_rows(schema, rows)


def split_at(table: Table, boundaries: list[int]) -> list[Table]:
    cuts = sorted({b for b in boundaries if 0 < b < table.n_rows})
    edges = [0, *cuts, table.n_rows]
    return [
        table.slice_rows(lo, hi) for lo, hi in zip(edges, edges[1:])
    ]


def assert_same_suffstats(a: SuffStats, b: SuffStats) -> None:
    ta, ea, ca, fa = a.finalize()
    tb, eb, cb, fb = b.finalize()
    assert ta == tb
    assert np.array_equal(ca, cb)
    assert np.array_equal(fa, fb)
    assert a.n_rows == b.n_rows
    for name in ta.schema.names:
        # vocabularies replay code for code, and the struct columns with
        # them
        assert ea.card(name) == eb.card(name)
        assert [
            cell_key(ea.decode(name, c)) for c in range(ea.card(name))
        ] == [cell_key(eb.decode(name, c)) for c in range(eb.card(name))]
        assert np.array_equal(ea.codes(name), eb.codes(name))


suffstats_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestSuffStatsProperties:
    @given(
        seed=st.integers(0, 10_000),
        n_rows=st.integers(1, 60),
        boundaries=st.lists(st.integers(1, 59), max_size=6),
    )
    @suffstats_settings
    def test_chunk_boundary_invariance(self, seed, n_rows, boundaries):
        """Merged chunk statistics equal the single-shot accumulation
        for arbitrary boundary placements — NULLs, null-like strings,
        and mid-stream minted codes included."""
        table = build_stream_table(seed, n_rows)
        one_shot = SuffStats().update(table)
        chunked = SuffStats()
        for chunk in split_at(table, boundaries):
            chunked.update(chunk)
        assert_same_suffstats(one_shot, chunked)
        # bounded reservoir: Algorithm R draws once per row past the
        # cap, so the sample is chunk-boundary invariant too
        small_one = SuffStats(reservoir_rows=10).update(table)
        small_chunked = SuffStats(reservoir_rows=10)
        for chunk in split_at(table, boundaries):
            small_chunked.update(chunk)
        assert small_one.reservoir_table() == small_chunked.reservoir_table()

    @given(seed=st.integers(0, 10_000), n_rows=st.integers(1, 60))
    @suffstats_settings
    def test_weighted_counts_match_bruteforce(self, seed, n_rows):
        """Struct-row multiplicities weight marginals back up to exactly
        the integers a whole-table pass counts."""
        table = build_stream_table(seed, n_rows)
        stats = suffstats_from_table(table, chunk_rows=7)
        struct, senc, row_counts, row_firsts = stats.finalize()
        full = table.encode()
        for name in table.schema.names:
            weighted = weighted_marginal_counts(
                senc.codes(name), senc.card(name), row_counts
            )
            brute = np.bincount(
                full.codes(name), minlength=full.card(name)
            )
            assert np.array_equal(weighted, brute)
        # first-appearance indices are the stream's own
        assert sorted(row_firsts.tolist()) == row_firsts.tolist()
        assert int(row_counts.sum()) == table.n_rows

    @given(
        seed=st.integers(0, 10_000),
        split=st.integers(1, 59),
        boundaries=st.lists(st.integers(1, 59), max_size=4),
    )
    @suffstats_settings
    def test_incremental_update_equals_single_stream(
        self, seed, split, boundaries
    ):
        """``stats(A + B)`` equals ``stats(A)`` then ``update(B)`` —
        the accumulator-level half of the fit_update identity."""
        table = build_stream_table(seed, 60)
        split = min(split, table.n_rows - 1)
        whole = SuffStats()
        for chunk in split_at(table, boundaries):
            whole.update(chunk)
        incremental = SuffStats().update(table.slice_rows(0, split))
        incremental.update(table.slice_rows(split, table.n_rows))
        assert_same_suffstats(whole, incremental)

    def test_update_rejects_schema_mismatch(self):
        stats = SuffStats().update(build_stream_table(0, 5))
        other = Table.from_rows(Schema.of("x:categorical"), [["a"]])
        with pytest.raises(SchemaError):
            stats.update(other)

    def test_finalize_before_update_raises(self):
        with pytest.raises(CleaningError):
            SuffStats().finalize()

    def test_reservoir_exact_flag(self):
        table = build_stream_table(3, 30)
        stats = SuffStats(reservoir_rows=50).update(table)
        assert stats.reservoir_exact
        assert stats.reservoir_table() == table
        capped = SuffStats(reservoir_rows=10).update(table)
        assert not capped.reservoir_exact
        assert capped.reservoir_table().n_rows == 10

    def test_from_finalized_roundtrip(self):
        """Rehydrated statistics (the registry reload) are counting-
        identical and keep accepting updates."""
        table = build_stream_table(11, 50)
        live = suffstats_from_table(table, chunk_rows=16)
        struct, senc, row_counts, row_firsts = live.finalize()
        back = SuffStats.from_finalized(
            struct, senc, row_counts, row_firsts, live.n_rows,
            n_chunks=live.n_chunks,
        )
        assert_same_suffstats(live, back)
        extra = build_stream_table(12, 10)
        assert_same_suffstats(live.update(extra), back.update(extra))

    def test_suffstats_from_csv_matches_table(self, tmp_path):
        table = build_stream_table(21, 40)
        path = tmp_path / "stream.csv"
        write_csv(table, path)
        on_disk = suffstats_from_csv(
            path, chunk_rows=9, schema=table.schema
        )
        # compare against the table as read back from disk (the CSV
        # round-trip normalises NULL-like cells)
        in_memory = suffstats_from_table(
            read_csv(path, schema=table.schema), chunk_rows=9
        )
        assert_same_suffstats(on_disk, in_memory)

    def test_iter_table_chunks_covers_and_rejects(self):
        table = build_stream_table(1, 20)
        chunks = list(iter_table_chunks(table, 7))
        assert [c.n_rows for c in chunks] == [7, 7, 6]
        with pytest.raises(CleaningError):
            list(iter_table_chunks(table, 0))


# -- incremental refit ---------------------------------------------------------


class TestFitUpdate:
    def test_fit_update_identity(self):
        """fit(A + B) == fit(A) + fit_update(B) + refresh_structure()."""
        dirty = build_dirty_table(seed=9, n_rows=180)
        a = dirty.slice_rows(0, 120)
        b = dirty.slice_rows(120, dirty.n_rows)

        whole = BClean(BCleanConfig.pi(structure="hillclimb"))
        whole.fit(dirty, chunk_rows=32)

        grown = BClean(BCleanConfig.pi(structure="hillclimb"))
        grown.fit(a, chunk_rows=32)
        grown.fit_update(b)
        assert grown.structure_stale
        assert grown._suffstats.n_rows == dirty.n_rows
        grown.refresh_structure()
        assert not grown.structure_stale
        assert_same_network(whole.bn, grown.bn)
        # cleaning the same foreign stream repairs identically
        assert repair_tuples(whole.clean(dirty)) == repair_tuples(
            grown.clean(dirty)
        )

    def test_fit_update_keeps_dag_until_refresh(self):
        dirty = build_dirty_table(seed=2)
        engine = BClean(BCleanConfig.pi(structure="hillclimb"))
        engine.fit(dirty.slice_rows(0, 100), chunk_rows=25)
        edges_before = sorted(engine.dag.edges())
        engine.fit_update(dirty.slice_rows(100, dirty.n_rows))
        assert sorted(engine.dag.edges()) == edges_before

    def test_fit_update_accepts_row_iterables(self):
        dirty = build_dirty_table(seed=4)
        head, tail = dirty.slice_rows(0, 140), dirty.slice_rows(140, 160)
        via_table = BClean(BCleanConfig.pi(structure="hillclimb"))
        via_table.fit(head, chunk_rows=64)
        via_table.fit_update(tail)
        via_rows = BClean(BCleanConfig.pi(structure="hillclimb"))
        via_rows.fit(head, chunk_rows=64)
        via_rows.fit_update(
            [[tail.cell(i, n) for n in tail.schema.names]
             for i in range(tail.n_rows)]
        )
        assert_same_network(via_table.bn, via_rows.bn)

    def test_fit_update_before_fit_raises(self):
        engine = BClean(BCleanConfig.pi())
        with pytest.raises(CleaningError):
            engine.fit_update([["a", "b", "c"]])

    def test_refresh_structure_requires_stream_stats(self):
        dirty = build_dirty_table(seed=6)
        engine = BClean(BCleanConfig.pi(structure="hillclimb"))
        engine.fit(dirty)  # plain fit keeps no accumulator
        with pytest.raises(CleaningError):
            engine.refresh_structure()


class TestSetNetworkCodedRefit:
    def test_set_network_matches_scalar_oracle(self):
        """The coded ``set_network`` refit equals the scalar
        ``DiscreteBayesNet.fit`` on the same DAG — on the plain path."""
        dirty = build_dirty_table(seed=13)
        engine = BClean(BCleanConfig.pi(structure="hillclimb"))
        engine.fit(dirty)
        dag = engine.dag
        oracle = DiscreteBayesNet.fit(
            engine.table, dag, alpha=engine.config.smoothing_alpha
        )
        engine.set_network(dag)
        assert_same_network(oracle, engine.bn)

    def test_set_network_streamed_matches_whole_table(self, tmp_path):
        """A csv-mode engine's coded refit (weighted struct counts)
        equals the whole-table engine's on the same hand-picked DAG —
        full refit and ``refit_nodes`` subset both."""
        dirty = build_dirty_table(seed=13)
        src = tmp_path / "train.csv"
        write_csv(dirty, src)
        whole = BClean(BCleanConfig.pi(structure="hillclimb"))
        whole.fit(read_csv(src))
        streamed = BClean(BCleanConfig.pi(structure="hillclimb"))
        streamed.fit_csv(src, chunk_rows=32)
        dag = whole.dag
        whole.set_network(dag)
        streamed.set_network(dag)
        assert_same_network(whole.bn, streamed.bn)
        node = dirty.schema.names[0]
        whole.set_network(dag, refit_nodes=[node])
        streamed.set_network(dag, refit_nodes=[node])
        assert_same_network(whole.bn, streamed.bn)


# -- the auto cost model -------------------------------------------------------


class TestAutoFitCostModel:
    def test_cost_shape(self):
        """2 rows-touched per attribute pair per distinct signature,
        extrapolated over the unseen remainder like the clean planner."""
        assert estimate_stream_fit_cost(0, 5) == 0.0
        assert estimate_stream_fit_cost(100, 1) == 0.0
        assert estimate_stream_fit_cost(100, 4) == 2.0 * 100 * 6
        partial = estimate_stream_fit_cost(
            100, 4, rows_seen=500, total_rows=2000
        )
        assert partial == extrapolate_stream_cost(
            2.0 * 100 * 6, 500, 2000
        )
        assert partial == pytest.approx(4 * 2.0 * 100 * 6)

    def test_cost_crosses_threshold_at_scale(self):
        """The two regression directions of the model itself: a small
        fused table stays under the auto threshold, a large stream's
        distinct count pushes past it."""
        small = estimate_stream_fit_cost(200, 3)
        large = estimate_stream_fit_cost(400_000, 4)
        assert small < AUTO_FIT_COST_THRESHOLD
        assert large >= AUTO_FIT_COST_THRESHOLD

    def test_auto_downgrades_small_stream_to_serial(self):
        """Below the threshold the session never pays pool spin-up: the
        precheck resolves ``auto`` to serial before any dispatch."""
        dirty = build_dirty_table(seed=17)
        engine = BClean(
            BCleanConfig.pi(
                structure="hillclimb", fit_executor="auto", n_jobs=2
            )
        )
        engine.fit(dirty, chunk_rows=40)
        diag = engine._fit_diag
        assert diag["auto"] is True
        assert diag["fit_executor"] == "serial"
        assert diag["pools_created"] == 0
        base = BClean(BCleanConfig.pi(structure="hillclimb"))
        base.fit(dirty, chunk_rows=40)
        assert_same_network(base.bn, engine.bn)

    def test_auto_keeps_parallel_past_threshold(self, monkeypatch):
        """Past the threshold the precheck leaves ``auto`` alone and the
        job-level resolution upgrades — repairs stay identical."""
        monkeypatch.setattr(
            "repro.core.engine.AUTO_FIT_COST_THRESHOLD", 0.0
        )
        monkeypatch.setattr("repro.exec.fit.AUTO_FIT_COST_THRESHOLD", 0.0)
        dirty = build_dirty_table(seed=17)
        engine = BClean(
            BCleanConfig.pi(
                structure="hillclimb", fit_executor="auto", n_jobs=2
            )
        )
        engine.fit(dirty, chunk_rows=40)
        diag = engine._fit_diag
        assert diag["auto"] is True
        assert diag["fit_executor"] != "serial"
        base = BClean(BCleanConfig.pi(structure="hillclimb"))
        base.fit(dirty, chunk_rows=40)
        assert_same_network(base.bn, engine.bn)


# -- registry: streamed models -------------------------------------------------


class TestRegistryStreamedModels:
    @pytest.fixture
    def csv_path(self, tmp_path):
        dirty = build_dirty_table(seed=23)
        src = tmp_path / "train.csv"
        write_csv(dirty, src)
        return src

    def test_fit_or_load_csv_roundtrip(self, csv_path, tmp_path):
        import json

        registry = ModelRegistry(tmp_path / "models")
        config = BCleanConfig.pi(structure="hillclimb")
        engine, loaded = registry.fit_or_load_csv(
            csv_path, config=config, chunk_rows=64
        )
        assert not loaded
        assert engine._stream_fitted
        names = engine.table.schema.names
        payload = json.loads(registry.path_for(names).read_text())
        assert payload["stream"]["n_rows"] == 160
        assert (
            len(payload["stream"]["row_counts"])
            == engine._suffstats.n_distinct
        )

        again, loaded = registry.fit_or_load_csv(
            csv_path, config=config, chunk_rows=64
        )
        assert loaded
        assert again._stream_fitted
        assert_same_network(engine.bn, again.bn)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        ra = engine.clean_csv(csv_path, out_a)
        rb = again.clean_csv(csv_path, out_b)
        assert repair_tuples(ra) == repair_tuples(rb)
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_plain_model_has_no_stream_rider(self, csv_path, tmp_path):
        import json

        registry = ModelRegistry(tmp_path / "models")
        engine, _ = registry.fit_or_load(
            read_csv(csv_path), config=BCleanConfig.pi(structure="hillclimb")
        )
        payload = json.loads(
            registry.path_for(engine.table.schema.names).read_text()
        )
        assert "stream" not in payload

    def test_registry_fit_update_persists_merged_stats(
        self, csv_path, tmp_path
    ):
        registry = ModelRegistry(tmp_path / "models")
        config = BCleanConfig.pi(structure="hillclimb")
        engine, _ = registry.fit_or_load_csv(
            csv_path, config=config, chunk_rows=64
        )
        fresh = build_dirty_table(seed=29, n_rows=40)
        registry.fit_update(engine, fresh)
        reloaded = registry.load(engine.table.schema.names)
        assert reloaded._suffstats.n_rows == 200
        assert_same_network(engine.bn, reloaded.bn)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        ra = engine.clean_csv(csv_path, out_a)
        rb = reloaded.clean_csv(csv_path, out_b)
        assert repair_tuples(ra) == repair_tuples(rb)
        assert out_a.read_bytes() == out_b.read_bytes()


# -- CI smoke: traced chunked streaming fit end to end -------------------------


def test_traced_streaming_fit_smoke(tmp_path):
    """Chunked CSV fit at two chunk sizes, DAG + repair identity vs the
    whole-table fit, with fit.stream spans validating against the event
    schema; writes the trace to $FIT_TRACE_OUT when set so CI can
    validate and archive it."""
    import json
    import os
    from pathlib import Path

    from repro.obs import validate_chrome_trace

    dirty = build_dirty_table(seed=13)
    src = tmp_path / "train.csv"
    write_csv(dirty, src)
    base = BClean(BCleanConfig.pi(structure="hillclimb"))
    base.fit(read_csv(src))
    base_out = tmp_path / "cleaned_base.csv"
    base_repairs = repair_tuples(base.clean_csv(src, base_out))

    out = os.environ.get("FIT_TRACE_OUT")
    trace_path = Path(out) if out else tmp_path / "fit-stream-trace.json"
    for chunk_rows in (32, 64):
        engine = BClean(
            BCleanConfig.pi(structure="hillclimb", profile=True)
        )
        engine.fit_csv(src, chunk_rows=chunk_rows)
        assert_same_network(base.bn, engine.bn)
        dst = tmp_path / f"cleaned_{chunk_rows}.csv"
        assert repair_tuples(engine.clean_csv(src, dst)) == base_repairs
        assert dst.read_bytes() == base_out.read_bytes()
        engine._obs.write(trace_path)
        payload = json.loads(trace_path.read_text())
        assert validate_chrome_trace(payload) == []
        names = [e.get("name") for e in payload["traceEvents"]]
        assert "fit.stream" in names
        assert names.count("fit.stream.chunk") == -(-dirty.n_rows // chunk_rows)


def test_weighted_pair_counts_identical_for_non_dyadic_beta():
    """β = 0.3 is not dyadic: a row-by-row float sum of −0.3 weights
    rounds differently from the streamed build's folded
    ``row_counts · weight`` sums.  Both builds therefore count each
    class as an integer and take ``n_reliable − β·n_unreliable``, which
    makes them bit-identical for every β."""
    from repro.core.cooccurrence import build_pair_arrays, confidence_weights

    rng = np.random.default_rng(7)
    n = 5000
    rows = np.stack(
        [rng.integers(0, 4, n), rng.integers(0, 3, n), rng.integers(0, 50, n)],
        axis=1,
    )
    # confidence is a pure function of the row, as in the engine
    weights = confidence_weights(
        np.where(rows[:, 2] % 3, 0.9, 0.1), tau=0.5, beta=0.3, n_rows=n
    )
    whole = build_pair_arrays(rows[:, 0], 4, rows[:, 1], 3, weights)

    distinct, first, counts = np.unique(
        rows, axis=0, return_index=True, return_counts=True
    )
    order = np.argsort(first)
    distinct, first, counts = distinct[order], first[order], counts[order]
    streamed = build_pair_arrays(
        distinct[:, 0], 4, distinct[:, 1], 3, weights[first], counts, first
    )
    for w, s in zip(whole, streamed):
        assert np.array_equal(w.keys, s.keys)
        assert np.array_equal(w.raw, s.raw)
        assert np.array_equal(w.first_row, s.first_row)
        assert np.array_equal(w.weighted, s.weighted)

    # The input is sensitive: the two running-sum forms disagree on it.
    fused = rows[:, 0] * 3 + rows[:, 1]
    _, pair_of_row = np.unique(fused, return_inverse=True)
    row_by_row = np.bincount(pair_of_row, weights=weights)
    folded = np.zeros(len(row_by_row))
    np.add.at(folded, pair_of_row[first], counts * weights[first])
    assert not np.array_equal(row_by_row, folded)
