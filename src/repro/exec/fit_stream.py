"""Mergeable sufficient statistics: the one columnar fit path.

Every statistic the fit consumes — co-occurrence pair counts,
per-family CPT counts, marginals, entropies, G² tests, family scores —
is a pure function of the *multiset of row signatures*, plus
first-appearance indices for deterministic ordering.  So every
columnar fit folds its rows into a :class:`SuffStats` accumulator
holding only the stream's **distinct coded rows** with int64
multiplicities and global first-appearance indices, and the downstream
kernels (:func:`~repro.stats.infotheory.joint_code_counts`,
:func:`~repro.core.cooccurrence.build_pair_arrays`) accept
``row_counts`` / ``row_firsts`` to weight them back up exactly.
``BClean.fit(table)`` folds an in-memory table as one block (and keeps
the table as the fitted one); ``fit(table, chunk_rows=...)`` and
``BClean.fit_csv`` fold row blocks, never holding more than one in
memory, yet produce the **byte-identical** DAG, CPTs, and downstream
repairs of the one-block fit; ``fit_update`` folds more rows into the
same accumulator.

Three invariants make the equivalence *bit*-level, not just
statistical:

- **Vocabulary identity.**  Chunks are interned through one
  accumulating :class:`~repro.dataset.encoding.TableEncoding` that
  mints codes in stream order (idempotently, never renumbering).  The
  finalized distinct-row table keeps its rows in global
  first-appearance order, so a value's first appearance *in the struct
  table* is exactly the signature that carried its first appearance *in
  the stream* — the struct table's encoding (a copy of the
  accumulator's) is therefore also what re-interning it would give:
  the full stream's vocabularies code for code (NULL = 0, then
  first-appearance order).  A one-block ``fit(table)`` keeps a copy of
  the accumulator's encoding as the table's own.
- **Integer-exact weighting.**  All raw counts are multiplicity sums
  (``np.bincount``, exact below 2**53) — the same integers a
  whole-stream ``return_counts`` pass yields; confidence-weighted pair
  counts take the canonical form ``n_reliable − β·n_unreliable`` from
  those integer class counts in both builds, so they match the full
  pass bit for bit for every β (tuple confidence is a pure function of
  the row's values, so all duplicates of a signature share one weight).
- **Order identity.**  ``row_firsts`` carries global stream indices;
  every downstream sort-by-first-appearance (CPT entry walks, CSR
  tie-breaking, candidate orders) sees the exact indices the full pass
  would.

What stays row-level: the structure learner's default FDX profiler
sorts raw tuples, so the accumulator keeps a bounded **reservoir
sample** (Algorithm R, seeded, one draw per row past the cap — the
sample is a deterministic function of the stream alone, invariant to
chunk boundaries).  Streams no longer than the reservoir cap reproduce
the whole table exactly; ``fit(table)`` always profiles the real table
and keeps the reservoir for a later ``fit_update`` +
``refresh_structure``.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator

import numpy as np

from repro.dataset.encoding import TableEncoding
from repro.dataset.table import Table
from repro.errors import CleaningError, SchemaError
from repro.exec.planner import extrapolate_stream_cost

#: default bound on the row-level reservoir sample kept for the
#: structure learner (``BCleanConfig.fit_reservoir_rows``).
DEFAULT_RESERVOIR_ROWS = 10_000

#: default row-block size of ``BClean.fit_csv`` when neither the call
#: nor ``BCleanConfig.fit_chunk_rows`` picks one
DEFAULT_CHUNK_ROWS = 4096


class SuffStats:
    """Mergeable sufficient statistics of a row stream.

    Feed row blocks in stream order through :meth:`update`; at any point
    :meth:`finalize` (or the lazy properties) yields the distinct-row
    **struct table** with its encoding, multiplicities, and global
    first-appearance indices — everything the weighted fit kernels need
    to reproduce the whole-stream statistics exactly.  Updating after a
    finalize simply invalidates the finalized view; the accumulator is
    the unit the incremental refit (``fit_update``) folds new rows into.

    Parameters
    ----------
    reservoir_rows:
        Cap of the row-level reservoir sample (``0`` disables it).
    seed:
        Seed of the reservoir's RNG — the sample is a deterministic
        function of ``(seed, stream)``, independent of chunk boundaries.
    """

    def __init__(
        self,
        reservoir_rows: int = DEFAULT_RESERVOIR_ROWS,
        seed: int = 0,
    ):
        self.schema = None
        self._acc: TableEncoding | None = None
        self._index: dict[bytes, int] = {}
        self._rows: list[np.ndarray] = []
        self._counts: list[int] = []
        self._firsts: list[int] = []
        self.n_rows = 0
        self.n_chunks = 0
        self.reservoir_rows = int(reservoir_rows)
        self._rng = random.Random(seed)
        self._reservoir: list[tuple] = []
        self._final: tuple | None = None

    @property
    def n_distinct(self) -> int:
        """Number of distinct row signatures accumulated so far."""
        return len(self._rows)

    def update(self, chunk: Table) -> "SuffStats":
        """Fold one row block (in stream order) into the statistics."""
        if self.schema is None:
            self.schema = chunk.schema
        elif list(chunk.schema.names) != list(self.schema.names):
            raise SchemaError(
                "stream chunk schema does not match the accumulated one: "
                f"{list(chunk.schema.names)} vs {list(self.schema.names)}"
            )
        self.n_chunks += 1
        if self._acc is None:
            # First block (even an empty one): build the accumulating
            # encoding over it (codes minted in stream order); later
            # blocks intern incrementally.
            self._acc = TableEncoding(chunk)
            matrix = self._acc.matrix()
        elif chunk.n_rows:
            matrix = self._acc.encode_table(chunk)
        if chunk.n_rows == 0:
            return self
        self._final = None
        offset = self.n_rows

        uniq, first_idx, inverse, cnts = np.unique(
            matrix,
            axis=0,
            return_index=True,
            return_inverse=True,
            return_counts=True,
        )
        # np.unique sorts lexicographically; walk the distinct signatures
        # in *chunk-appearance* order instead so dict insertion order —
        # and therefore the struct table's row order — is global
        # first-appearance order, which the vocabulary-identity proof
        # depends on.
        order = np.argsort(first_idx, kind="stable")
        index = self._index
        for i in order.tolist():
            key = uniq[i].tobytes()
            pos = index.get(key)
            if pos is None:
                index[key] = len(self._rows)
                self._rows.append(uniq[i])
                self._counts.append(int(cnts[i]))
                self._firsts.append(offset + int(first_idx[i]))
            else:
                self._counts[pos] += int(cnts[i])

        cap = self.reservoir_rows
        if cap > 0:
            reservoir = self._reservoir
            rng = self._rng
            columns = chunk.columns
            for i in range(chunk.n_rows):
                t = offset + i
                if t < cap:
                    reservoir.append(tuple(col[i] for col in columns))
                else:
                    # Algorithm R: exactly one draw per row past the cap,
                    # so the sample is chunk-boundary invariant.
                    j = rng.randint(0, t)
                    if j < cap:
                        reservoir[j] = tuple(col[i] for col in columns)
        self.n_rows += chunk.n_rows
        return self

    def finalize(self) -> tuple[Table, TableEncoding, np.ndarray, np.ndarray]:
        """``(table, encoding, row_counts, row_firsts)`` of the stream.

        ``table`` holds the distinct row signatures in global
        first-appearance order (representative cell values, decoded
        through the accumulating vocabularies); ``encoding`` is an
        independent copy of the accumulating encoding over it —
        identical, code for code, to the encoding of the full stream,
        and to a fresh interning of ``table`` (first-appearance order
        mints the same codes).  Cached until the next :meth:`update`.
        """
        if self._final is not None:
            return self._final
        if self.schema is None:
            raise CleaningError("SuffStats.finalize before any update()")
        names = self.schema.names
        d = len(self._rows)
        if d:
            matrix = np.vstack(self._rows)
        else:
            matrix = np.empty((0, len(names)), dtype=np.int64)
        columns = []
        for j, name in enumerate(names):
            vocab = self._acc.vocab(name)
            columns.append([vocab.decode(c) for c in matrix[:, j].tolist()])
        table = Table(self.schema, columns)
        # The distinct rows carry the stream's own codes, so their
        # encoding is the accumulator's, code for code.
        encoding = TableEncoding.from_codes(
            table,
            {name: self._acc.vocab(name) for name in names},
            {name: matrix[:, j] for j, name in enumerate(names)},
        )
        self._final = (
            table,
            encoding,
            np.asarray(self._counts, dtype=np.int64),
            np.asarray(self._firsts, dtype=np.int64),
        )
        return self._final

    def encoding_of(self, table: Table) -> TableEncoding:
        """Encoding of ``table``, the full stream these statistics were
        folded from.  A one-block fold of ``table`` already interned
        exactly its cells, so that encoding is copied instead of
        interning ``table`` a second time."""
        acc = self._acc
        source = acc._source
        if (
            self.n_chunks == 1
            and source is not None
            and source.n_rows == table.n_rows
            and source.columns == table.columns
        ):
            names = acc.names
            return TableEncoding.from_codes(
                table,
                {name: acc.vocab(name) for name in names},
                {name: acc.codes(name) for name in names},
            )
        return table.encode()

    @property
    def table(self) -> Table:
        """The struct (distinct-row) table, in first-appearance order."""
        return self.finalize()[0]

    @property
    def encoding(self) -> TableEncoding:
        """Encoding of the struct table = encoding of the full stream."""
        return self.finalize()[1]

    @property
    def row_counts(self) -> np.ndarray:
        """int64 multiplicity of each struct row in the stream."""
        return self.finalize()[2]

    @property
    def row_firsts(self) -> np.ndarray:
        """Global stream index of each struct row's first appearance."""
        return self.finalize()[3]

    def reservoir_table(self) -> Table:
        """The bounded row-level sample as a table (for the row-order
        needs of the structure profiler).  Equals the whole stream when
        it never exceeded the cap."""
        if self.schema is None:
            raise CleaningError("SuffStats.reservoir_table before update()")
        return Table.from_rows(self.schema, self._reservoir)

    @property
    def reservoir_exact(self) -> bool:
        """Whether the reservoir holds the *entire* stream (no row ever
        displaced — streams no longer than the cap)."""
        return self.reservoir_rows > 0 and self.n_rows <= self.reservoir_rows

    @classmethod
    def from_finalized(
        cls,
        table: Table,
        encoding: TableEncoding,
        row_counts: np.ndarray,
        row_firsts: np.ndarray,
        n_rows: int,
        n_chunks: int = 1,
        reservoir_rows: int = DEFAULT_RESERVOIR_ROWS,
        seed: int = 0,
    ) -> "SuffStats":
        """Rehydrate an accumulator from persisted finalized statistics
        (the model registry's streamed reload).

        Counting state is exact: every statistic derived from the
        rehydrated accumulator — and any rows folded in later via
        :meth:`update` — matches an accumulator that never left memory.
        Only the row-level reservoir is approximate (the raw stream is
        gone): it is rebuilt by expanding the distinct rows in
        first-appearance order by their multiplicities up to the cap,
        which preserves the row *population* but not the original
        sample, so a later FDX re-profile may differ from the
        never-persisted engine's.

        ``encoding`` stays the finalized encoding (the engine's, with
        every code it minted for foreign tables); the accumulator
        re-interns the distinct rows instead, so those minted codes —
        which no stream row holds — never enter the stream's
        vocabularies on a later :meth:`update`.
        """
        stats = cls(reservoir_rows=reservoir_rows, seed=seed)
        stats.schema = table.schema
        stats._acc = TableEncoding(table)
        matrix = stats._acc.matrix()
        stats._rows = [matrix[i] for i in range(table.n_rows)]
        stats._counts = [int(c) for c in row_counts]
        stats._firsts = [int(f) for f in row_firsts]
        stats._index = {row.tobytes(): i for i, row in enumerate(stats._rows)}
        stats.n_rows = int(n_rows)
        stats.n_chunks = int(n_chunks)
        if reservoir_rows > 0:
            reservoir: list[tuple] = []
            for i in range(table.n_rows):
                reps = min(
                    int(row_counts[i]), reservoir_rows - len(reservoir)
                )
                if reps <= 0:
                    break
                row = tuple(col[i] for col in table.columns)
                reservoir.extend([row] * reps)
            stats._reservoir = reservoir
        stats._final = (
            table,
            encoding,
            np.asarray(row_counts, dtype=np.int64),
            np.asarray(row_firsts, dtype=np.int64),
        )
        return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SuffStats({self.n_rows} rows, {self.n_distinct} distinct, "
            f"{self.n_chunks} chunks)"
        )


def suffstats_from_chunks(
    chunks: Iterable[Table],
    reservoir_rows: int = DEFAULT_RESERVOIR_ROWS,
    seed: int = 0,
    tracer=None,
) -> SuffStats:
    """Accumulate a :class:`SuffStats` over an iterable of row blocks
    (one block resident at a time).  With a ``tracer``, each block folds
    under a ``fit.stream.chunk`` span."""
    stats = SuffStats(reservoir_rows=reservoir_rows, seed=seed)
    for chunk in chunks:
        if tracer is not None:
            with tracer.span(
                "fit.stream.chunk",
                cat="fit",
                rows=chunk.n_rows,
                distinct=stats.n_distinct,
            ):
                stats.update(chunk)
        else:
            stats.update(chunk)
    return stats


def iter_table_chunks(table: Table, chunk_rows: int) -> Iterator[Table]:
    """Slice an in-memory table into row blocks of ``chunk_rows``."""
    if chunk_rows <= 0:
        raise CleaningError(f"chunk_rows must be positive, got {chunk_rows}")
    for start in range(0, table.n_rows, chunk_rows):
        yield table.slice_rows(start, start + chunk_rows)
    if table.n_rows == 0:
        yield table


def suffstats_from_table(
    table: Table,
    chunk_rows: int,
    reservoir_rows: int = DEFAULT_RESERVOIR_ROWS,
    seed: int = 0,
    tracer=None,
) -> SuffStats:
    """Accumulate statistics over an in-memory table in row blocks —
    the exact chunked code path of the CSV stream (``BClean.fit``
    folds its table through here, as one block by default)."""
    return suffstats_from_chunks(
        iter_table_chunks(table, chunk_rows),
        reservoir_rows=reservoir_rows,
        seed=seed,
        tracer=tracer,
    )


def suffstats_from_csv(
    source,
    chunk_rows: int,
    schema=None,
    delimiter: str = ",",
    reservoir_rows: int = DEFAULT_RESERVOIR_ROWS,
    seed: int = 0,
    tracer=None,
) -> SuffStats:
    """Accumulate statistics over a CSV file without ever materialising
    it: :func:`~repro.dataset.io.iter_csv_chunks` yields one typed row
    block at a time, and only the deduplicated signatures survive."""
    from repro.dataset.io import iter_csv_chunks

    return suffstats_from_chunks(
        iter_csv_chunks(source, chunk_rows, schema=schema, delimiter=delimiter),
        reservoir_rows=reservoir_rows,
        seed=seed,
        tracer=tracer,
    )


def weighted_marginal_counts(
    codes: np.ndarray, card: int, row_counts: np.ndarray
) -> np.ndarray:
    """Per-code marginal counts of one struct column, multiplicities
    applied — the int64 values ``np.bincount`` would yield on the full
    stream."""
    return np.bincount(codes, weights=row_counts, minlength=card).astype(
        np.int64
    )


def estimate_stream_fit_cost(
    n_distinct: int,
    n_attrs: int,
    rows_seen: int | None = None,
    total_rows: int | None = None,
) -> float:
    """Whole-stream fit cost estimate in the fit planner's rows-touched
    units (the quantity ``fit_executor="auto"`` weighs against
    :data:`~repro.exec.planner.AUTO_FIT_COST_THRESHOLD`).

    The dominant dispatched work of a streamed fit is the pair job: 2
    rows-touched per attribute pair per **distinct** signature — the
    deduplicated stream is what the workers actually scan.  The shape
    follows :func:`~repro.exec.planner.extrapolate_stream_cost`: when
    the accumulator has only seen part of a stream of known length, the
    cost observed so far is scaled by the remaining fraction, so the
    session decision matches the full-stream one instead of flapping on
    early cheap chunks.
    """
    m = max(0, int(n_attrs))
    cum = 2.0 * float(max(0, n_distinct)) * (m * (m - 1) / 2.0)
    if rows_seen is None:
        return cum
    return extrapolate_stream_cost(cum, rows_seen, total_rows)
