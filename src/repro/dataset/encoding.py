"""Value interning: per-attribute vocabularies and integer-coded columns.

The columnar fast path of the engine replaces `cell_key` hashing in the
inner loops with dense integer codes.  The interning contract:

- Every attribute gets an :class:`AttributeVocabulary` mapping the
  *canonical key* of a cell (``cell_key(value)`` — ``None``/NaN collapse
  to one NULL key) onto a dense code in ``[0, size)``.
- **Code 0 is reserved for NULL** in every vocabulary, whether or not
  the column contains NULLs.  Non-null keys are numbered ``1..size-1``
  in order of first appearance in the column, so codes are deterministic
  for a given table.
- ``decode(code)`` returns the representative cell value of the code:
  the first original value observed with that key (``None`` for code 0).
  Because ``cell_key`` is the identity on non-null values, the
  representative compares equal to every value that produced the code.
- Values never seen by the vocabulary encode to :data:`UNSEEN_CODE`
  (−1); every statistics structure treats −1 as "count 0 everywhere".

A :class:`TableEncoding` interns all columns of one table **once**; all
hot-path components (co-occurrence index, coded CPTs, the engine's
candidate competitions) consume the coded columns instead of re-hashing
cell objects per query.

**Incremental encoding** (:meth:`TableEncoding.encode_table`) lets the
engine clean *foreign* tables on the coded fast path: unseen values are
interned on the fly, receiving fresh codes *above* every code the fitted
statistics were built with.  Statistics consumers treat any code at or
beyond their build-time cardinality as "never observed" (count 0, CPT
fallback), which reproduces the value-level semantics where unseen
values encode to :data:`UNSEEN_CODE`.

Encodings are picklable so the parallel execution subsystem can ship
them to worker processes; the pickle drops the source-table reference
(only used by the :meth:`TableEncoding.matches` snapshot check, which
workers never perform).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.dataset.table import NULL_KEY, Cell, Table, cell_key, is_null
from repro.errors import SchemaError

#: Code returned for values outside the vocabulary.
UNSEEN_CODE = -1

#: Reserved code of the NULL key in every vocabulary.
NULL_CODE = 0


class AttributeVocabulary:
    """Dense integer codes for the distinct (keyed) values of one column."""

    __slots__ = ("attribute", "_code_of", "_values", "_null_mask", "_keys")

    def __init__(self, attribute: str):
        self.attribute = attribute
        self._code_of: dict[object, int] = {NULL_KEY: NULL_CODE}
        self._values: list[Cell] = [None]
        self._null_mask: np.ndarray | None = None
        self._keys: list | None = None

    def add(self, value: Cell) -> int:
        """Intern ``value`` and return its code (idempotent)."""
        key = cell_key(value)
        code = self._code_of.get(key)
        if code is None:
            code = len(self._values)
            self._code_of[key] = code
            self._values.append(value)
            self._null_mask = None
            self._keys = None
        return code

    def encode(self, value: Cell) -> int:
        """Code of ``value`` (:data:`UNSEEN_CODE` if never interned)."""
        return self._code_of.get(cell_key(value), UNSEEN_CODE)

    def copy(self) -> "AttributeVocabulary":
        """An independent copy: later interning into either vocabulary
        leaves the other untouched."""
        twin = AttributeVocabulary(self.attribute)
        twin._code_of = dict(self._code_of)
        twin._values = list(self._values)
        return twin

    def decode(self, code: int) -> Cell:
        """Representative cell value of ``code``."""
        return self._values[code]

    @property
    def size(self) -> int:
        """Number of codes (NULL included), i.e. codes are ``[0, size)``."""
        return len(self._values)

    def keys(self) -> list:
        """Canonical :func:`cell_key` of every code, aligned with codes.

        Cached (and rebuilt after incremental extension); consumers must
        treat the returned list as read-only.
        """
        if self._keys is None or len(self._keys) != self.size:
            self._keys = [cell_key(v) for v in self._values]
        return self._keys

    @property
    def null_mask(self) -> np.ndarray:
        """Boolean array over codes: True where the representative is
        NULL-*like* (``is_null``), which is broader than code 0 — e.g.
        the literal string ``"null"`` keys as itself but is still not a
        legal repair candidate."""
        if self._null_mask is None or len(self._null_mask) != self.size:
            self._null_mask = np.array(
                [is_null(v) for v in self._values], dtype=bool
            )
        return self._null_mask

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AttributeVocabulary({self.attribute!r}, {self.size} codes)"


class TableEncoding:
    """Integer-coded view of a whole table (built once, shared by all
    hot-path components).

    Attributes
    ----------
    names:
        Attribute names in schema order.
    """

    def __init__(self, table: Table):
        self.names: list[str] = list(table.schema.names)
        self._index_of = {a: j for j, a in enumerate(self.names)}
        self.n_rows = table.n_rows
        self._source = table
        self._source_mutations = table.mutation_count
        self._vocabs: dict[str, AttributeVocabulary] = {}
        self._codes: dict[str, np.ndarray] = {}
        for name in self.names:
            vocab = AttributeVocabulary(name)
            codes = np.fromiter(
                (vocab.add(v) for v in table.column(name)),
                dtype=np.int64,
                count=table.n_rows,
            )
            self._vocabs[name] = vocab
            self._codes[name] = codes

    @classmethod
    def from_codes(
        cls,
        table: Table,
        vocabs: dict[str, AttributeVocabulary],
        codes: dict[str, np.ndarray],
    ) -> "TableEncoding":
        """Encoding of ``table`` assembled from copies of already-built
        vocabularies and the given coded columns (never written, so they
        may be shared), skipping the per-cell interning pass.
        ``codes[name]`` must be exactly what interning ``table``'s column
        under ``vocabs[name]`` gives."""
        enc = cls.__new__(cls)
        enc.names = list(table.schema.names)
        enc._index_of = {a: j for j, a in enumerate(enc.names)}
        enc.n_rows = table.n_rows
        enc._source = table
        enc._source_mutations = table.mutation_count
        enc._vocabs = {a: vocabs[a].copy() for a in enc.names}
        enc._codes = {
            a: np.ascontiguousarray(codes[a], dtype=np.int64) for a in enc.names
        }
        return enc

    # -- access ----------------------------------------------------------------

    def vocab(self, attribute: str) -> AttributeVocabulary:
        """Vocabulary of ``attribute``."""
        return self._vocabs[attribute]

    def codes(self, attribute: str) -> np.ndarray:
        """The coded column of ``attribute`` (int64, length ``n_rows``)."""
        return self._codes[attribute]

    def card(self, attribute: str) -> int:
        """Vocabulary size of ``attribute`` (codes are ``[0, card)``)."""
        return self._vocabs[attribute].size

    def column_index(self, attribute: str) -> int:
        """Schema position of ``attribute``."""
        return self._index_of[attribute]

    def encode(self, attribute: str, value: Cell) -> int:
        """Code of ``value`` in ``attribute`` (−1 when unseen)."""
        return self._vocabs[attribute].encode(value)

    def decode(self, attribute: str, code: int) -> Cell:
        """Representative value of ``code`` in ``attribute``."""
        return self._vocabs[attribute].decode(code)

    def matches(self, table: Table) -> bool:
        """Whether this snapshot still describes ``table``: same shape
        and every cell interning to its recorded code.

        Consumers holding fit-time statistics call this before trusting
        the coded columns — a table mutated after :meth:`Table.encode`
        (or one containing values the vocabulary never saw) fails the
        check and must take the value-level path instead.

        The source table's ``mutation_count`` makes the common case
        O(1): unchanged counter on the same object means no
        :meth:`Table.set_cell` ran since the snapshot.  Any other table
        (or a bumped counter) gets the full cell-by-cell re-interning
        scan; only mutation behind ``set_cell``'s back (writing into
        ``Table.columns`` directly) can fool the fast path.
        """
        if table is self._source:
            if table.mutation_count == self._source_mutations:
                return True
        if table.n_rows != self.n_rows or list(table.schema.names) != self.names:
            return False
        for name in self.names:
            lookup = self._vocabs[name]._code_of
            codes = self._codes[name].tolist()
            for code, value in zip(codes, table.column(name)):
                if lookup.get(cell_key(value), UNSEEN_CODE) != code:
                    return False
        return True

    def matrix(self) -> np.ndarray:
        """All coded columns stacked into an ``(n_rows, n_cols)`` array."""
        if not self.names:
            return np.empty((self.n_rows, 0), dtype=np.int64)
        return np.column_stack([self._codes[a] for a in self.names])

    def encode_row(self, row: Sequence[Cell]) -> np.ndarray:
        """Codes of one raw row given in schema order."""
        return np.array(
            [self._vocabs[a].encode(v) for a, v in zip(self.names, row)],
            dtype=np.int64,
        )

    def encode_table(self, table: Table) -> np.ndarray:
        """Coded matrix of a *foreign* table under these vocabularies,
        interning unseen values incrementally.

        The foreign table must share this encoding's schema names.  Seen
        values keep their fitted codes; unseen values extend the
        per-attribute vocabularies (idempotently — re-encoding the same
        foreign value yields the same code), so the engine's fast path
        can dedup row signatures exactly like the scalar path's
        ``cell_key`` cache.  Extension never renumbers existing codes,
        and every statistics structure built *before* the extension
        keeps its own build-time cardinality as the "seen" horizon:
        codes at or beyond it score as never-observed values.

        The fitted columns (:meth:`codes`), ``n_rows``, and the
        :meth:`matches` snapshot are untouched — this is a pure view of
        the foreign table.
        """
        if list(table.schema.names) != self.names:
            raise SchemaError(
                "foreign table schema does not match the fitted encoding: "
                f"{list(table.schema.names)} vs {self.names}"
            )
        if not self.names:
            return np.empty((table.n_rows, 0), dtype=np.int64)
        columns = []
        for name in self.names:
            vocab = self._vocabs[name]
            columns.append(
                np.fromiter(
                    (vocab.add(v) for v in table.column(name)),
                    dtype=np.int64,
                    count=table.n_rows,
                )
            )
        return np.column_stack(columns)

    def __getstate__(self) -> dict:
        """Pickle support for worker shipping: drop the source-table
        reference (it exists solely for the O(1) ``matches`` fast path,
        which only the fitting process performs)."""
        state = dict(self.__dict__)
        state["_source"] = None
        return state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cards = {a: self.card(a) for a in self.names}
        return f"TableEncoding({self.n_rows} rows, cards={cards})"
