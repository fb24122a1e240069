"""Golden repair digests: the competition kernel must stay byte-identical.

The scalar-vs-columnar suites compare scores within 1e-9, which is not
byte identity.  These cases pin the sha256 of every repair's exact
``repr((row, attribute, old_value, new_value, old_score, new_score))``
plus the work counters ``candidates_evaluated`` and
``candidates_filtered_uc`` over a grid of datasets, inference modes,
scoring knobs, a foreign table that mints codes, and a cached chunked
stream.  All cases use the default (dyadic) β.

The digests were captured on commit 0f6bcae (the per-competition
kernel that the shard-level segment kernel replaced); any change to a
repair, a score bit, or a counter fails here by case name.  To print
fresh digests after an intended semantic change, run
``python tests/test_kernel_golden.py``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.config import BCleanConfig, InferenceMode
from repro.core.engine import BClean
from repro.data.benchmark import load_benchmark
from repro.dataset.table import Table

pytestmark = pytest.mark.fast

PIP = InferenceMode.PARTITIONED_PRUNED


def _digest(result) -> tuple[str, int, int]:
    h = hashlib.sha256()
    for r in result.repairs:
        h.update(
            repr(
                (r.row, r.attribute, r.old_value, r.new_value,
                 r.old_score, r.new_score)
            ).encode()
        )
        h.update(b"\n")
    stats = result.stats
    return (
        h.hexdigest(),
        stats.candidates_evaluated,
        stats.candidates_filtered_uc,
    )


def _fitted(dataset: str, n_rows: int, **knobs):
    instance = load_benchmark(dataset, n_rows=n_rows, seed=0)
    engine = BClean(BCleanConfig(**knobs), instance.constraints)
    engine.fit(instance.dirty)
    return instance, engine


def _plain(dataset, n_rows, **knobs):
    return _fitted(dataset, n_rows, **knobs)[1].clean()


def _foreign():
    """A table other than the fitted one, with unseen values that
    incremental encoding must mint codes for."""
    instance, engine = _fitted("hospital", 80, mode=PIP)
    other = instance.dirty.copy()
    names = other.schema.names
    other.set_cell(3, names[1], "UNSEEN-MINTED-A")
    other.set_cell(17, names[2], "UNSEEN-MINTED-B")
    other.set_cell(41, names[4], "UNSEEN-MINTED-C")
    result = engine.clean(other)
    assert result.diagnostics["exec"]["incremental_encoding"] is True
    return result


def _cached_stream():
    """A ``chunk_rows=64`` stream over the fitted rows repeated three
    times, with the session competition cache on (auto-sized)."""
    instance, engine = _fitted(
        "hospital", 80, mode=PIP, chunk_rows=64, competition_cache=None
    )
    dirty = instance.dirty
    result = engine.clean(Table.from_rows(dirty.schema, dirty.to_rows() * 3))
    assert result.diagnostics["stream"]["cache_hits"] > 0
    return result


CASES = {
    **{
        f"{ds}-{n}-{mode.value}": (
            lambda ds=ds, n=n, mode=mode: _plain(ds, n, mode=mode)
        )
        for ds, n in (("hospital", 80), ("flights", 100), ("soccer", 300))
        for mode in InferenceMode
    },
    "hospital-80-no-compensatory": lambda: _plain(
        "hospital", 80, mode=PIP, use_compensatory=False
    ),
    "hospital-80-no-ucs": lambda: _plain("hospital", 80, mode=PIP, use_ucs=False),
    "hospital-80-no-cap": lambda: _plain(
        "hospital", 80, mode=PIP, candidate_cap=None
    ),
    "flights-100-no-cap": lambda: _plain(
        "flights", 100, mode=PIP, candidate_cap=None
    ),
    # A cap below the context pool size: exercises truncation, the
    # domain top-up re-entering truncated candidates, and the re-sort.
    "hospital-80-cap-6": lambda: _plain("hospital", 80, candidate_cap=6),
    "flights-100-cap-6": lambda: _plain("flights", 100, candidate_cap=6),
    "hospital-80-frequency-weight": lambda: _plain(
        "hospital", 80, mode=PIP, frequency_weight=0.5
    ),
    "hospital-80-foreign-minted": _foreign,
    "hospital-80x3-chunk64-cached": _cached_stream,
}

GOLDEN = {
    'flights-100-basic': ('cf867c1eba33d386f181f7ded3dcd3a5d2c0f6fb1a92368b079f207ed6a41f94', 12930, 7107),
    'flights-100-cap-6': ('cb066e46efb207be728daec314cebbac1b9a95fc280f0480b0f9aece24ac7d6b', 3574, 555),
    'flights-100-no-cap': ('5ea4ed0e621dfb63a2ed835c0c417bb724169ce65ef92cd73e9bc71ecb3bad9c', 4644, 3720),
    'flights-100-pi': ('7d59917cb230ffcf3e81cbfdfc6583f2a02c9357b7667fdde3e608d23a6a3353', 13074, 8300),
    'flights-100-pip': ('5ea4ed0e621dfb63a2ed835c0c417bb724169ce65ef92cd73e9bc71ecb3bad9c', 4644, 3720),
    'hospital-80-basic': ('ea8c2e2d88568a7178ba170743c37f2581b70ffec39dfcdf7b24003b810f0063', 11226, 480),
    'hospital-80-cap-6': ('50660e1db731280af9ef90807ef6b56af81d72c86b038f9429d48b01453b8cca', 5708, 351),
    'hospital-80-foreign-minted': ('b7dbaa913d88a5dce389f4105c41eefd20caf140458c7b85cbb2831f3d593613', 6011, 50),
    'hospital-80-frequency-weight': ('a1978d5c0d39b1d8d13dfbc172be71c2ae00e2ff4bdefdea3ca1fc724836205e', 5995, 50),
    'hospital-80-no-cap': ('b07cd16bedbfce90661cfe42c1ab9c164cb727db269642f72498a6794aab832b', 5995, 50),
    'hospital-80-no-compensatory': ('91add964a5f7bfe88f24b2113af24e08fde9d06ceb6aa44d4bb245d3f6b48e0a', 5995, 50),
    'hospital-80-no-ucs': ('7e0ca6b470a158e4453f5ca309a883f0b0f723030d74021a52ef71ee9215b25a', 6039, 0),
    'hospital-80-pi': ('edf812ac54f148bd002026f3e5898b32363119471074236d750aa143c615b1d8', 14186, 480),
    'hospital-80-pip': ('b07cd16bedbfce90661cfe42c1ab9c164cb727db269642f72498a6794aab832b', 5995, 50),
    'hospital-80x3-chunk64-cached': ('b8905e05fc32cf39594d2f0468d86773156049e479e185091230e0c0ccfacd06', 5995, 50),
    'soccer-300-basic': ('5868065937806b0d27a7ab86e53d241c50ce71923fcf3bdcba199f30d7096247', 44412, 600),
    'soccer-300-pi': ('0e7a8d47c88ad0c2d550e06ed1943c7c80b4cdb05b3a0efaeca1c380bf5adb02', 44412, 600),
    'soccer-300-pip': ('c2ee34bbf8896af9fc4217310da5bca6985081eac79c3a246aefe652bb4da693', 15442, 600),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    assert _digest(CASES[case]()) == GOLDEN[case]


if __name__ == "__main__":  # pragma: no cover - digest capture helper
    for name in sorted(CASES):
        print(f"    {name!r}: {_digest(CASES[name]())!r},")
