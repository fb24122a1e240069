"""Compare exact inference with BClean's Markov-blanket shortcut.

§6.1 and §8 frame BClean's partitioned inference as one point in a
spectrum: exact variable elimination over the whole network
(expensive, error-propagating) versus the Markov-blanket shortcut
BClean actually uses (exact under full evidence, and the cheapest).
This example builds one network from FD-structured data and runs the
same repair query through both, reporting the posterior each assigns
to the ground-truth value and the time each takes.

Run:  python examples/inference_tradeoffs.py
"""

import random
import time

from repro.bayesnet import (
    DiscreteBayesNet,
    VariableElimination,
    markov_blanket_posterior,
)
from repro.bayesnet.dag import DAG
from repro.dataset.schema import Schema
from repro.dataset.table import Table


def build_network(n_rows: int = 600, seed: int = 9) -> DiscreteBayesNet:
    """city → zip → state, fitted from mostly-clean observations."""
    rng = random.Random(seed)
    places = [
        ("sylacauga", "35150", "AL"),
        ("centre", "35960", "AL"),
        ("newyork", "10001", "NY"),
        ("sanfrancisco", "94105", "CA"),
        ("chicago", "60601", "IL"),
    ]
    schema = Schema.of("city:categorical", "zip:categorical", "state:categorical")
    rows = []
    for _ in range(n_rows):
        city, zipcode, state = rng.choice(places)
        # 3% label noise so the CPTs are not degenerate
        if rng.random() < 0.03:
            state = rng.choice(["AL", "NY", "CA", "IL", "KT"])
        rows.append([city, zipcode, state])
    table = Table.from_rows(schema, rows)
    dag = DAG(schema.names)
    dag.add_edge("city", "zip")
    dag.add_edge("zip", "state")
    return DiscreteBayesNet.fit(table, dag, alpha=0.5)


def main() -> None:
    bn = build_network()
    print("Network:")
    print(bn.dag.pretty())

    # The repair query: a tuple observed as (sylacauga, ?, AL) — what is
    # the posterior over the missing zip?
    evidence = {"city": "sylacauga", "state": "AL"}
    truth = "35150"
    print(f"\nQuery: P(zip | {evidence}), ground truth = {truth!r}\n")

    engines = []

    ve = VariableElimination(bn)
    start = time.perf_counter()
    p_ve = ve.query("zip", evidence)
    engines.append(("variable elimination", p_ve, time.perf_counter() - start))

    # BClean's own shortcut: full evidence → only the Markov blanket
    # matters.  This is what §6.1's partitioned inference computes.
    row = dict(evidence)
    start = time.perf_counter()
    p_blanket = markov_blanket_posterior(bn, "zip", row)
    engines.append(("Markov blanket (BCleanPI)", p_blanket, time.perf_counter() - start))

    print(f"{'engine':<44} {'P(truth)':>9} {'top value':>10} {'ms':>8}")
    print("-" * 76)
    for name, posterior, seconds in engines:
        top = max(posterior, key=posterior.get)
        print(
            f"{name:<44} {posterior.get(truth, 0.0):>9.4f} "
            f"{str(top):>10} {seconds * 1e3:>8.2f}"
        )

    print(
        "\nBoth engines agree on the MAP value; the Markov-blanket path"
        "\ngets there at a fraction of the cost — the §6.1 optimisation."
    )


if __name__ == "__main__":
    main()
