"""JSON serialisation of networks and CPTs.

The §7.3.2 workflow — auto-construct, review, hand-edit — only pays off
if the edited network can be kept: cleaning runs are repeated as data
arrives, and nobody re-edits the Flights network every morning.  This
module round-trips DAGs and fitted :class:`DiscreteBayesNet` models
through plain JSON (human-diffable, so network edits can be reviewed
like code).

NULL-keyed entries use the substrate's :data:`NULL_KEY` sentinel, and
non-string domain values are tagged with their type so integers survive
the round trip (JSON object keys are always strings).

The model registry (:mod:`repro.serve.registry`) extends the network
round-trip with the build-time :class:`~repro.dataset.encoding.TableEncoding`
(:func:`encoding_to_dict` / :func:`encoding_from_dict`): the coded
statistics a reloaded model cleans with are only byte-identical to the
in-memory ones if every code — **including codes minted incrementally
while cleaning foreign tables** — maps to the same value after the
round trip, so the encoding must travel with the network.
:func:`save_bn` accepts the encoding as an optional rider and
:func:`load_bn_bundle` hands both back.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Any

import numpy as np

from repro.bayesnet.cpt import CPT
from repro.bayesnet.dag import DAG
from repro.bayesnet.model import DiscreteBayesNet
from repro.dataset.encoding import AttributeVocabulary, TableEncoding
from repro.errors import GraphError, ModelFormatError

FORMAT_VERSION = 1


def _encode_value(value: Any) -> Any:
    """A JSON-safe tagged form of one domain value."""
    if isinstance(value, bool):  # before int: bool is an int subclass
        return {"t": "bool", "v": value}
    if isinstance(value, (int, float)):
        return {"t": type(value).__name__, "v": value}
    return value  # strings (including NULL_KEY) pass through


def _decode_value(raw: Any) -> Any:
    if isinstance(raw, dict) and "t" in raw:
        if raw["t"] == "int":
            return int(raw["v"])
        if raw["t"] == "float":
            return float(raw["v"])
        if raw["t"] == "bool":
            return bool(raw["v"])
        raise GraphError(f"unknown value tag {raw['t']!r}")
    return raw


# -- DAG ---------------------------------------------------------------------


def dag_to_dict(dag: DAG) -> dict:
    """A JSON-safe description of a DAG (nodes + weighted edges)."""
    return {
        "version": FORMAT_VERSION,
        "nodes": dag.nodes,
        "edges": [
            {"from": u, "to": v, "weight": w} for u, v, w in dag.edges()
        ],
    }


def dag_from_dict(payload: dict) -> DAG:
    """Rebuild a DAG; edge insertion re-checks acyclicity."""
    try:
        nodes = payload["nodes"]
        edges = payload["edges"]
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed DAG payload: missing {exc}") from exc
    dag = DAG(nodes)
    for edge in edges:
        dag.add_edge(edge["from"], edge["to"], edge.get("weight", 1.0))
    return dag


def save_dag(dag: DAG, path: str | Path) -> None:
    """Write a DAG as (pretty-printed, diffable) JSON."""
    Path(path).write_text(
        json.dumps(dag_to_dict(dag), indent=2) + "\n", encoding="utf-8"
    )


def load_dag(path: str | Path) -> DAG:
    """Read a DAG written by :func:`save_dag`."""
    return dag_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


# -- CPT ---------------------------------------------------------------------


def cpt_to_dict(cpt: CPT) -> dict:
    """Serialise the raw counts (not probabilities): counts compose
    under re-smoothing, probabilities do not."""
    return {
        "variable": cpt.variable,
        "parents": list(cpt.parent_names),
        "alpha": cpt.alpha,
        "configs": [
            {
                "parents": [_encode_value(p) for p in config],
                "counts": [
                    [_encode_value(v), n] for v, n in counts.items()
                ],
            }
            for config, counts in cpt._config_counts.items()
        ],
    }


def cpt_from_dict(payload: dict) -> CPT:
    """Rebuild a CPT from its count form.

    Counts are injected directly rather than replayed through
    ``observe`` — a 200k-observation CPT reloads in one pass.  The
    stored keys were produced by ``cell_key`` at save time, so they are
    already in canonical form.
    """
    cpt = CPT(
        payload["variable"],
        tuple(payload["parents"]),
        alpha=payload.get("alpha", 1.0),
    )
    for config in payload["configs"]:
        parents = tuple(_decode_value(p) for p in config["parents"])
        counts = Counter(
            {_decode_value(v): int(n) for v, n in config["counts"]}
        )
        cpt._config_counts[parents] = counts
        total = sum(counts.values())
        cpt._config_totals[parents] = total
        cpt._marginal.update(counts)
        cpt._n += total
    return cpt


# -- table encoding ----------------------------------------------------------


def encoding_to_dict(encoding: TableEncoding) -> dict:
    """A JSON-safe description of a table interning.

    Per-attribute vocabularies are stored as the representative values
    of codes ``1..size-1`` in code order (code 0 is always NULL, so it
    is implicit); replaying :meth:`AttributeVocabulary.add` over that
    list reproduces every code number exactly — minted foreign codes
    included, which is what makes a reloaded model's repairs
    byte-identical.  The fitted coded columns ride along so the fit
    table can be reconstructed without re-interning.
    """
    return {
        "version": FORMAT_VERSION,
        "n_rows": encoding.n_rows,
        "names": list(encoding.names),
        "vocabs": {
            name: [
                _encode_value(v)
                for v in encoding.vocab(name)._values[1:]
            ]
            for name in encoding.names
        },
        "codes": {
            name: encoding.codes(name).tolist() for name in encoding.names
        },
    }


def encoding_from_dict(payload: dict) -> TableEncoding:
    """Rebuild a :class:`TableEncoding` written by
    :func:`encoding_to_dict` (no source table: the ``matches`` fast
    path is re-armed by the registry once it reconstructs one)."""
    try:
        names = list(payload["names"])
        n_rows = int(payload["n_rows"])
        vocabs = payload["vocabs"]
        codes = payload["codes"]
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed encoding payload: missing {exc}") from exc
    encoding = TableEncoding.__new__(TableEncoding)
    encoding.names = names
    encoding._index_of = {a: j for j, a in enumerate(names)}
    encoding.n_rows = n_rows
    encoding._source = None
    encoding._source_mutations = -1
    encoding._vocabs = {}
    encoding._codes = {}
    for name in names:
        vocab = AttributeVocabulary(name)
        for raw in vocabs[name]:
            vocab.add(_decode_value(raw))
        encoding._vocabs[name] = vocab
        encoding._codes[name] = np.asarray(codes[name], dtype=np.int64)
    return encoding


# -- full model --------------------------------------------------------------


def bn_to_dict(
    bn: DiscreteBayesNet, encoding: TableEncoding | None = None
) -> dict:
    """A JSON-safe description of a fitted network, optionally carrying
    the build-time table encoding (the registry's reload contract)."""
    payload = {
        "version": FORMAT_VERSION,
        "dag": dag_to_dict(bn.dag),
        "alpha": bn.alpha,
        "cpts": {node: cpt_to_dict(cpt) for node, cpt in bn.cpts.items()},
    }
    if encoding is not None:
        payload["encoding"] = encoding_to_dict(encoding)
    return payload


def bn_from_dict(payload: dict) -> DiscreteBayesNet:
    """Rebuild a fitted network written by :func:`bn_to_dict`."""
    dag = dag_from_dict(payload["dag"])
    cpts = {
        node: cpt_from_dict(raw) for node, raw in payload["cpts"].items()
    }
    return DiscreteBayesNet(dag, cpts, alpha=payload.get("alpha", 1.0))


def save_bn(
    bn: DiscreteBayesNet,
    path: str | Path,
    encoding: TableEncoding | None = None,
) -> None:
    """Write a fitted network as JSON (with its table encoding when
    given, so a reload reproduces minted codes exactly)."""
    Path(path).write_text(
        json.dumps(bn_to_dict(bn, encoding=encoding)) + "\n", encoding="utf-8"
    )


def read_model_payload(path: str | Path) -> dict:
    """Parse a model file written by :func:`save_bn` or the model
    registry, checking the ``version`` both write.

    Raises :class:`~repro.errors.ModelFormatError` naming the file when
    it is truncated or not JSON, or when its version is missing or not
    :data:`FORMAT_VERSION` — never a bare ``JSONDecodeError`` or a
    ``KeyError`` from deep inside the decoder.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(
            f"model file {path} is truncated or not valid JSON: {exc}"
        ) from exc
    version = payload.get("version") if isinstance(payload, dict) else None
    if version != FORMAT_VERSION:
        found = (
            "no format version"
            if version is None
            else f"format version {version!r}"
        )
        raise ModelFormatError(
            f"model file {path} has {found}; this build reads "
            f"version {FORMAT_VERSION}"
        )
    return payload


def load_bn(path: str | Path) -> DiscreteBayesNet:
    """Read a network written by :func:`save_bn`."""
    return bn_from_dict(read_model_payload(path))


def load_bn_bundle(
    path: str | Path,
) -> tuple[DiscreteBayesNet, TableEncoding | None]:
    """Read a network plus its encoding rider (``None`` for files
    written without one — the pre-registry format)."""
    payload = read_model_payload(path)
    bn = bn_from_dict(payload)
    raw = payload.get("encoding")
    return bn, encoding_from_dict(raw) if raw is not None else None
