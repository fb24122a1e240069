"""The model registry: fit once per schema, reload anywhere.

The serving shape of the ROADMAP ("cleaning as a service") separates
*fitting* a model from *using* it: fit cost is paid once per schema and
the resulting model — network, statistics, build-time table encoding —
is persisted so any later process can open a resident session on it and
serve cleans without refitting.

A registry is a directory of one subdirectory per **schema
fingerprint** (a hash of the attribute names in order), each holding a
single ``model.json``:

``model.json``
    ``{"version", "fingerprint", "schema", "config", "bn"}`` where
    ``bn`` is the :func:`repro.bayesnet.serialize.bn_to_dict` payload
    *with its encoding rider* — the network's counts, the DAG, and the
    complete interning (vocabularies in code order plus the fitted
    coded columns).

The reload contract is **byte-identity**: a loaded engine must produce
exactly the repairs the in-memory one would, including for foreign
tables whose unseen values minted codes after ``fit()``.  That works
because

- the encoding round-trip replays every vocabulary in code order, so
  all codes (minted ones included) keep their numbers;
- the fit table is reconstructed from the coded columns through
  ``decode`` — representatives are ``cell_key``-identical to the
  original cells, so re-derived statistics (co-occurrence, domains,
  confidences) come out identical;
- the persisted network is injected over the refitted one, so a
  hand-edited model (§7.3.2) survives the registry too.

Constraints are **not** persisted — they are arbitrary Python
callables; the caller supplies the registry they fit with (CLI specs
are re-loadable by construction).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.bayesnet.serialize import (
    FORMAT_VERSION,
    bn_from_dict,
    bn_to_dict,
    encoding_from_dict,
    read_model_payload,
)
from repro.constraints.registry import UCRegistry
from repro.core.config import BCleanConfig
from repro.core.engine import BClean
from repro.dataset.encoding import TableEncoding
from repro.dataset.schema import Attribute, AttrType, Schema
from repro.dataset.table import Table
from repro.errors import CleaningError
from repro.exec.fit_stream import SuffStats

#: the one file a registry entry consists of
MODEL_FILE = "model.json"


def _csv_header(source, delimiter: str = ",") -> list[str]:
    """The attribute names of a CSV, from its header row alone (the
    streamed bootstrap must fingerprint the schema without reading the
    file)."""
    import csv

    with open(source, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            return next(reader)
        except StopIteration:
            raise CleaningError(f"empty CSV: {source}") from None


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file in the same
    directory, fsynced and then ``os.replace``d over the target: a
    reader sees the old file or the new one, never half of one, and a
    failed save leaves the previous model intact (and no temp file)."""
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def schema_fingerprint(names: Sequence[str]) -> str:
    """The registry key of a schema: a short stable hash of its
    attribute names in order (the unit a model is fitted per)."""
    joined = "\x1f".join(names)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]


# -- schema / config round-trips ----------------------------------------------


def schema_to_dict(schema: Schema) -> list[dict]:
    """JSON-safe schema description (names, logical types, nullability
    — request CSVs must be read under the *fitted* types, not re-
    inferred ones, or value keys diverge)."""
    return [
        {"name": a.name, "type": a.attr_type.value, "nullable": a.nullable}
        for a in schema.attributes
    ]


def schema_from_dict(payload: list[dict]) -> Schema:
    """Rebuild a schema written by :func:`schema_to_dict`."""
    return Schema(
        [
            Attribute(
                raw["name"],
                AttrType(raw.get("type", "text")),
                bool(raw.get("nullable", False)),
            )
            for raw in payload
        ]
    )


def config_to_dict(config: BCleanConfig) -> dict:
    """JSON-safe form of every engine knob (enums by value; the nested
    FDX config flattened by ``dataclasses.asdict``)."""
    payload = dataclasses.asdict(config)
    payload["mode"] = config.mode.value
    return payload


def config_from_dict(payload: dict) -> BCleanConfig:
    """Rebuild a config written by :func:`config_to_dict` (the string
    ``mode`` converts back in ``__post_init__``)."""
    from repro.bayesnet.structure.fdx import FDXConfig

    payload = dict(payload)
    if isinstance(payload.get("fdx"), dict):
        payload["fdx"] = FDXConfig(**payload["fdx"])
    return BCleanConfig(**payload)


def table_from_encoding(encoding: TableEncoding, schema: Schema) -> Table:
    """Reconstruct the fit table from its coded columns.

    ``decode`` returns the representative cell of each code — the first
    original value observed with its key — so every reconstructed cell
    is ``cell_key``-identical to the cell it stands for, and every
    statistic derived from the reconstruction matches the original
    build byte for byte.
    """
    columns = []
    for name in encoding.names:
        vocab = encoding.vocab(name)
        columns.append([vocab.decode(int(c)) for c in encoding.codes(name)])
    return Table(schema, columns)


# -- the registry -------------------------------------------------------------


class ModelRegistry:
    """A directory of fitted models, one per schema fingerprint.

    Typical serving bootstrap::

        registry = ModelRegistry("models/")
        engine, loaded = registry.fit_or_load(table, BCleanConfig.pip())
        with BCleanService(engine) as service:
            ...
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def path_for(self, names: Sequence[str]) -> Path:
        """Where the model for this schema lives (existing or not)."""
        return self.root / schema_fingerprint(names) / MODEL_FILE

    def contains(self, names: Sequence[str]) -> bool:
        """Whether a model for this schema has been saved."""
        return self.path_for(names).is_file()

    def save(self, engine: BClean) -> Path:
        """Persist a fitted engine's model; returns the model path.

        Requires the columnar path (the reload rebuilds through
        ``fit(encoding=...)``, which needs the singleton composition).
        """
        if engine.bn is None or engine.table is None:
            raise CleaningError("fit() must be called before registry save")
        if not engine._singleton_composition():
            raise CleaningError(
                "the model registry requires the singleton composition "
                "(merged-node models cannot be reloaded via the coded path)"
            )
        names = engine.table.schema.names
        path = self.path_for(names)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": FORMAT_VERSION,
            "fingerprint": schema_fingerprint(names),
            "schema": schema_to_dict(engine.table.schema),
            "config": config_to_dict(engine.config),
            "bn": bn_to_dict(engine.bn, encoding=engine._encoding),
        }
        if getattr(engine, "_stream_fitted", False) and engine._suffstats is not None:
            # A streamed fit's table is the distinct-row struct table:
            # persist the multiplicities so the reload weights every
            # statistic back up instead of counting struct rows once.
            stats = engine._suffstats
            payload["stream"] = {
                "n_rows": int(stats.n_rows),
                "n_chunks": int(stats.n_chunks),
                "row_counts": stats.row_counts.tolist(),
                "row_firsts": stats.row_firsts.tolist(),
            }
        _write_atomic(path, json.dumps(payload) + "\n")
        return path

    def load(
        self,
        names: Sequence[str],
        constraints: UCRegistry | None = None,
        config: BCleanConfig | None = None,
    ) -> BClean:
        """Rebuild a fitted engine for this schema.

        ``constraints`` must be the registry the model was fitted with
        (constraints are not persisted); ``config`` overrides the saved
        one — scheduling knobs (executor, n_jobs, chunk_rows) are safe
        to change, scoring knobs alter the model's decisions.
        """
        path = self.path_for(names)
        if not path.is_file():
            raise CleaningError(
                f"no registry model for schema {list(names)} "
                f"(fingerprint {schema_fingerprint(names)}) under {self.root}"
            )
        payload = read_model_payload(path)
        schema = schema_from_dict(payload["schema"])
        if config is None:
            config = config_from_dict(payload["config"])
        bn = bn_from_dict(payload["bn"])
        raw_encoding = payload["bn"].get("encoding")
        if raw_encoding is None:
            raise CleaningError(
                f"registry model {path} carries no encoding rider"
            )
        encoding = encoding_from_dict(raw_encoding)
        table = table_from_encoding(encoding, schema)
        # The table was decoded *from* the encoding, so the snapshot
        # check can take the O(1) identity fast path.
        encoding._source = table
        encoding._source_mutations = table.mutation_count
        engine = BClean(config, constraints)
        stream = payload.get("stream")
        if stream is not None:
            # Streamed model: the persisted table holds distinct row
            # signatures — rehydrate their multiplicities and refit
            # from them; folding the table itself would count each
            # distinct row once.
            stats = SuffStats.from_finalized(
                table,
                encoding,
                np.asarray(stream["row_counts"], dtype=np.int64),
                np.asarray(stream["row_firsts"], dtype=np.int64),
                int(stream["n_rows"]),
                n_chunks=int(stream.get("n_chunks", 1)),
                reservoir_rows=config.fit_reservoir_rows,
            )
            engine.fit_stats(stats, dag=bn.dag)
        else:
            engine.fit(table, dag=bn.dag, encoding=encoding)
        # The persisted CPTs are authoritative (they may be hand-edited,
        # §7.3.2); for an untouched model the refitted counts are
        # identical, so this is a no-op there.
        engine.bn = bn
        engine._columnar = None
        return engine

    def fit_or_load(
        self,
        table: Table,
        config: BCleanConfig | None = None,
        constraints: UCRegistry | None = None,
    ) -> tuple[BClean, bool]:
        """The serving bootstrap: reload the schema's model if one is
        saved, else fit on ``table`` and save.  Returns ``(engine,
        loaded)`` — ``loaded`` tells whether fit cost was skipped."""
        names = table.schema.names
        if self.contains(names):
            return (
                self.load(names, constraints=constraints, config=config),
                True,
            )
        engine = BClean(config, constraints)
        engine.fit(table)
        self.save(engine)
        return engine, False

    def fit_or_load_csv(
        self,
        src,
        config: BCleanConfig | None = None,
        constraints: UCRegistry | None = None,
        chunk_rows: int | None = None,
        schema=None,
        delimiter: str = ",",
    ) -> tuple[BClean, bool]:
        """:meth:`fit_or_load` from a training CSV that is never fully
        materialised: the schema fingerprint comes from a header-only
        peek, a saved model reloads as usual, and a miss fits
        out-of-core through :meth:`BClean.fit_csv` (one row block
        resident at a time) before saving."""
        names = (
            list(schema.names) if schema is not None else _csv_header(src, delimiter)
        )
        if self.contains(names):
            return (
                self.load(names, constraints=constraints, config=config),
                True,
            )
        engine = BClean(config, constraints)
        engine.fit_csv(
            src, chunk_rows=chunk_rows, schema=schema, delimiter=delimiter
        )
        self.save(engine)
        return engine, False

    def fit_update(self, engine: BClean, new_rows) -> Path:
        """Fold fresh rows into a fitted engine
        (:meth:`BClean.fit_update`) and re-persist its model — the
        registry entry then carries the merged statistics, so any later
        reload serves the updated model."""
        engine.fit_update(new_rows)
        return self.save(engine)
