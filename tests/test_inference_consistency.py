"""Cross-engine consistency: the §6.1 equivalence.

BClean's partitioned inference rests on one claim: with every other
attribute observed, the Markov-blanket posterior equals the exact
posterior.  For random tree-structured networks the Markov-blanket
shortcut must therefore agree with variable elimination, the exact
oracle.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bayesnet.dag import DAG
from repro.bayesnet.inference import VariableElimination, markov_blanket_posterior
from repro.bayesnet.model import DiscreteBayesNet
from repro.dataset.schema import Schema
from repro.dataset.table import Table

VALUES = ["a", "b", "c"]


def random_tree_bn(seed: int, n_nodes: int = 4, n_rows: int = 80) -> DiscreteBayesNet:
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(n_nodes)]
    schema = Schema.of(*[f"{n}:categorical" for n in names])
    rows = [[rng.choice(VALUES) for _ in names] for _ in range(n_rows)]
    table = Table.from_rows(schema, rows)
    dag = DAG(names)
    for i in range(1, n_nodes):
        dag.add_edge(names[rng.randrange(i)], names[i])
    return DiscreteBayesNet.fit(table, dag, alpha=0.5)


def full_evidence(bn, target, seed):
    rng = random.Random(seed)
    return {v: rng.choice(VALUES) for v in bn.nodes if v != target}


@given(seed=st.integers(0, 5000), target_idx=st.integers(0, 3))
@settings(max_examples=20, deadline=None)
def test_exact_engines_agree_under_full_evidence(seed, target_idx):
    bn = random_tree_bn(seed)
    target = bn.nodes[target_idx]
    evidence = full_evidence(bn, target, seed + 1)

    p_ve = VariableElimination(bn).query(target, evidence)
    p_mb = markov_blanket_posterior(bn, target, evidence)

    for value in p_ve:
        assert p_mb[value] == pytest.approx(p_ve[value], abs=1e-7)


@given(seed=st.integers(0, 5000))
@settings(max_examples=10, deadline=None)
def test_map_decision_is_engine_independent(seed):
    """The repair decision (arg-max) must not depend on the engine —
    unless the posterior is nearly tied, where float noise may flip it."""
    bn = random_tree_bn(seed)
    target = bn.nodes[1]
    evidence = full_evidence(bn, target, seed + 2)

    p_ve = VariableElimination(bn).query(target, evidence)
    ranked = sorted(p_ve.values(), reverse=True)
    if len(ranked) > 1 and ranked[0] - ranked[1] < 1e-6:
        return  # genuine tie: arg-max order is unspecified

    map_ve = max(p_ve, key=p_ve.get)
    p_mb = markov_blanket_posterior(bn, target, evidence)
    map_mb = max(p_mb, key=p_mb.get)
    assert map_mb == map_ve
