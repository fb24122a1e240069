"""Tests for repro.bayesnet.serialize (JSON round-trips).

The load-bearing property: a reloaded network must score *identically*
— same log-probabilities, same posteriors, same MAP decisions — because
the §7.3.2 workflow reuses saved (possibly hand-edited) networks across
cleaning runs.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bayesnet.cpt import CPT, NULL_KEY
from repro.bayesnet.dag import DAG
from repro.bayesnet.model import DiscreteBayesNet
from repro.bayesnet.serialize import (
    bn_from_dict,
    bn_to_dict,
    cpt_from_dict,
    cpt_to_dict,
    dag_from_dict,
    dag_to_dict,
    load_bn,
    load_dag,
    save_bn,
    save_dag,
)
from repro.dataset.schema import Schema
from repro.dataset.table import Table
from repro.errors import CycleError, GraphError


def fitted_bn(seed=0, n_rows=80) -> DiscreteBayesNet:
    rng = random.Random(seed)
    schema = Schema.of("a:categorical", "b:categorical", "c:categorical")
    rows = []
    for _ in range(n_rows):
        a = rng.choice(["x", "y"])
        b = a.upper() if rng.random() < 0.9 else "Z"
        c = rng.choice(["p", None])  # NULLs must survive the round trip
        rows.append([a, b, c])
    table = Table.from_rows(schema, rows)
    dag = DAG(schema.names)
    dag.add_edge("a", "b")
    dag.add_edge("b", "c")
    return DiscreteBayesNet.fit(table, dag, alpha=0.5)


class TestDAGRoundTrip:
    def test_structure_preserved(self):
        dag = DAG(["a", "b", "c"])
        dag.add_edge("a", "b", weight=0.7)
        dag.add_edge("a", "c", weight=0.2)
        rebuilt = dag_from_dict(dag_to_dict(dag))
        assert rebuilt == dag
        assert rebuilt.edge_weight("a", "b") == pytest.approx(0.7)

    def test_file_round_trip(self, tmp_path):
        dag = DAG(["x", "y"])
        dag.add_edge("x", "y")
        path = tmp_path / "net.json"
        save_dag(dag, path)
        assert load_dag(path) == dag

    def test_saved_json_is_diffable(self, tmp_path):
        dag = DAG(["x", "y"])
        dag.add_edge("x", "y")
        path = tmp_path / "net.json"
        save_dag(dag, path)
        payload = json.loads(path.read_text())
        assert payload["version"] == 1
        assert payload["edges"][0]["from"] == "x"

    def test_malformed_payload_rejected(self):
        with pytest.raises(GraphError, match="malformed"):
            dag_from_dict({"nodes": ["a"]})

    def test_cyclic_payload_rejected(self):
        payload = {
            "version": 1,
            "nodes": ["a", "b"],
            "edges": [
                {"from": "a", "to": "b", "weight": 1.0},
                {"from": "b", "to": "a", "weight": 1.0},
            ],
        }
        with pytest.raises(CycleError):
            dag_from_dict(payload)

    def test_isolated_nodes_survive(self):
        dag = DAG(["a", "b", "lonely"])
        dag.add_edge("a", "b")
        rebuilt = dag_from_dict(dag_to_dict(dag))
        assert "lonely" in rebuilt
        assert rebuilt.is_isolated("lonely")


class TestCPTRoundTrip:
    def test_probabilities_identical(self):
        cpt = CPT("b", ("a",), alpha=0.5)
        for _ in range(10):
            cpt.observe("X", ("x",))
        for _ in range(3):
            cpt.observe("Z", ("x",))
        cpt.observe("X", ("y",))
        rebuilt = cpt_from_dict(cpt_to_dict(cpt))
        for value in ("X", "Z", "missing"):
            for parent in (("x",), ("y",), ("unseen",)):
                assert rebuilt.prob(value, parent) == pytest.approx(
                    cpt.prob(value, parent)
                )

    def test_null_values_survive(self):
        cpt = CPT("c", (), alpha=1.0)
        cpt.observe(None)
        cpt.observe("p")
        rebuilt = cpt_from_dict(cpt_to_dict(cpt))
        assert rebuilt.prob(None) == pytest.approx(cpt.prob(None))
        assert NULL_KEY in rebuilt.domain

    def test_integer_domain_survives(self):
        """JSON keys are strings; tagged values must restore ints."""
        cpt = CPT("n", (), alpha=1.0)
        cpt.observe(5)
        cpt.observe(7)
        cpt.observe(5)
        rebuilt = cpt_from_dict(cpt_to_dict(cpt))
        assert rebuilt.prob(5) == pytest.approx(cpt.prob(5))
        assert 5 in rebuilt.domain  # int, not "5"
        assert "5" not in rebuilt.domain

    def test_counts_metadata_preserved(self):
        cpt = CPT("b", ("a",))
        cpt.observe("v", ("p",))
        cpt.observe("w", ("p",))
        rebuilt = cpt_from_dict(cpt_to_dict(cpt))
        assert rebuilt.n_observations == 2
        assert rebuilt.n_configs == 1
        assert rebuilt.seen_config(("p",))


class TestModelRoundTrip:
    def test_scores_identical(self, tmp_path):
        bn = fitted_bn()
        path = tmp_path / "model.json"
        save_bn(bn, path)
        rebuilt = load_bn(path)

        row = {"a": "x", "b": "X", "c": "p"}
        assert rebuilt.joint_log_prob(row) == pytest.approx(
            bn.joint_log_prob(row)
        )
        assert rebuilt.blanket_log_score("b", "Z", row) == pytest.approx(
            bn.blanket_log_score("b", "Z", row)
        )

    def test_posteriors_identical(self, tmp_path):
        bn = fitted_bn(seed=1)
        path = tmp_path / "model.json"
        save_bn(bn, path)
        rebuilt = load_bn(path)
        row = {"a": "y", "c": None}
        p_orig = bn.posterior("b", row)
        p_new = rebuilt.posterior("b", row)
        assert set(p_orig) == set(p_new)
        for value in p_orig:
            assert p_new[value] == pytest.approx(p_orig[value])

    @given(seed=st.integers(0, 2000))
    @settings(max_examples=10, deadline=None)
    def test_round_trip_property(self, seed):
        bn = fitted_bn(seed=seed, n_rows=40)
        rebuilt = bn_from_dict(bn_to_dict(bn))
        rng = random.Random(seed)
        row = {
            "a": rng.choice(["x", "y"]),
            "b": rng.choice(["X", "Y", "Z"]),
            "c": rng.choice(["p", None]),
        }
        assert rebuilt.joint_log_prob(row) == pytest.approx(
            bn.joint_log_prob(row)
        )

    def test_edited_network_reuse_workflow(self, tmp_path):
        """The §7.3.2 loop: fit, edit, save; reload and clean with it."""
        from repro.core.config import BCleanConfig
        from repro.core.engine import BClean

        rng = random.Random(7)
        schema = Schema.of("k:categorical", "v:categorical")
        mapping = {f"k{i}": f"v{i}" for i in range(4)}
        rows = [
            [k, mapping[k]]
            for k in (rng.choice(list(mapping)) for _ in range(100))
        ]
        table = Table.from_rows(schema, rows)
        table.set_cell(0, "v", "WRONG")

        engine = BClean(BCleanConfig.pi())
        engine.fit(table)
        edited = engine.dag.copy()
        if not edited.has_edge("k", "v") and not edited.has_edge("v", "k"):
            edited.add_edge("k", "v")
        path = tmp_path / "edited.json"
        save_dag(edited, path)

        # a later session: reload the network instead of re-learning
        engine2 = BClean(BCleanConfig.pi())
        engine2.fit(table, dag=load_dag(path))
        result = engine2.clean()
        assert result.cleaned.cell(0, "v") == mapping[table.cell(0, "k")]


class TestEncodingRider:
    """The registry's reload contract at the serialize layer: the
    build-time encoding rides with the network, and codes minted for a
    foreign table's unseen values keep their exact numbers through the
    round trip — so a reloaded model repairs byte-identically."""

    def _sig(self, result):
        return [
            (r.row, r.attribute, r.old_value, r.new_value, r.old_score, r.new_score)
            for r in result.repairs
        ]

    def test_minted_codes_round_trip_byte_identical(self, tmp_path):
        from repro.core.config import BCleanConfig
        from repro.core.engine import BClean
        from repro.bayesnet.serialize import load_bn_bundle
        from repro.data.benchmark import load_benchmark
        from repro.serve.registry import table_from_encoding

        ds = load_benchmark("hospital", n_rows=30, seed=0)
        engine = BClean(BCleanConfig.pip(), ds.constraints)
        engine.fit(ds.dirty)
        foreign = ds.dirty.copy()
        minted_attr = foreign.schema.names[1]
        foreign.set_cell(2, minted_attr, "UNSEEN-MINTED-VALUE")
        foreign.set_cell(7, foreign.schema.names[2], None)
        before = engine.clean(foreign)  # mints codes for unseen values

        path = tmp_path / "model.json"
        save_bn(engine.bn, path, encoding=engine._encoding)
        bn, encoding = load_bn_bundle(path)

        # every code — minted ones included — keeps number and value
        assert encoding is not None
        for attr in engine._encoding.names:
            assert (
                encoding.vocab(attr)._values
                == engine._encoding.vocab(attr)._values
            )
            assert (
                encoding.codes(attr) == engine._encoding.codes(attr)
            ).all()
        assert "UNSEEN-MINTED-VALUE" in encoding.vocab(minted_attr)._values

        # a model rebuilt from the bundle repairs byte-identically
        table = table_from_encoding(encoding, ds.dirty.schema)
        assert table == ds.dirty
        encoding._source = table
        encoding._source_mutations = table.mutation_count
        reloaded = BClean(BCleanConfig.pip(), ds.constraints)
        reloaded.fit(table, dag=bn.dag, encoding=encoding)
        reloaded.bn = bn
        reloaded._columnar = None
        after = reloaded.clean(foreign)
        assert self._sig(after) == self._sig(before)
        assert after.cleaned == before.cleaned

    def test_bundle_without_encoding_loads_none(self, tmp_path):
        from repro.bayesnet.serialize import load_bn_bundle

        bn = fitted_bn()
        path = tmp_path / "bare.json"
        save_bn(bn, path)  # pre-registry format: no rider
        loaded, encoding = load_bn_bundle(path)
        assert encoding is None
        assert loaded.dag.nodes == bn.dag.nodes
        # and plain load_bn still reads files that carry a rider
        schema = Schema.of("a:categorical", "b:categorical", "c:categorical")
        rows = [["x", "X", "p"], ["y", "Y", None]]
        table = Table.from_rows(schema, rows)
        with_rider = tmp_path / "rider.json"
        save_bn(bn, with_rider, encoding=table.encode())
        assert load_bn(with_rider).dag.nodes == bn.dag.nodes

    def test_malformed_encoding_payload_rejected(self):
        from repro.bayesnet.serialize import encoding_from_dict

        with pytest.raises(GraphError, match="malformed encoding"):
            encoding_from_dict({"names": ["a"]})


class TestFormatVersionChecks:
    def test_bundle_rejects_unknown_or_missing_version(self, tmp_path):
        from repro.bayesnet.serialize import load_bn_bundle
        from repro.errors import ModelFormatError

        path = tmp_path / "model.json"
        save_bn(fitted_bn(), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["version"] = 2
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="format version 2"):
            load_bn_bundle(path)
        del payload["version"]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="no format version"):
            load_bn(path)

    def test_truncated_file_fails_by_name(self, tmp_path):
        from repro.bayesnet.serialize import load_bn_bundle
        from repro.errors import ModelFormatError

        path = tmp_path / "model.json"
        save_bn(fitted_bn(), path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) // 3], encoding="utf-8")
        with pytest.raises(ModelFormatError, match="truncated"):
            load_bn_bundle(path)
