"""Vectorized batch scoring: Eq. 1–3 for a whole candidate set at once.

Every policy decision in MAPA funnels through the same hot path:
enumerate the pattern's matches on the free GPUs, census the links each
match occupies, and score the candidates (AggBW — Eq. 1, predicted
EffBW — Eq. 2, PreservedBW — Eq. 3).  The scalar implementations in
:mod:`repro.scoring.census`, :mod:`repro.scoring.effective` and
:mod:`repro.scoring.preserved` resolve one match per call; this module
scores **all matches of a pattern in one shot** from dense numpy
arrays, using the topology's precomputed
:class:`~repro.topology.linktable.LinkTable` as the lookup backend.

The batch results are *bit-identical* to scoring one match at a time
with those per-match functions (the walk the differential tests keep
as their oracle in ``tests/reference/scan.py``), which is what lets the
policies score through tables without perturbing a single benchmark
table:

* link bandwidths (paper Table 1) are integer-valued floats, so sums of
  pairwise bandwidths are exact in IEEE-754 double precision no matter
  the association order — AggBW and PreservedBW cannot drift;
* the Eq. 2 polynomial has irrational coefficients, so instead of
  re-deriving it with different float arithmetic, predictions are
  computed by the *scalar* :meth:`~repro.scoring.effective.
  EffectiveBandwidthModel.predict` once per **unique** census and
  broadcast back over the batch with :func:`np.take` (matches of a
  pattern share a handful of distinct censuses, so this is also the
  fast way around the per-row polynomial).

The conventions match :mod:`repro.policies.scan`: a *pair matrix* is an
``(M, E)`` integer array whose row *i* lists the flat link-table
indices (``row(u) * n + row(v)``) of the hardware links that candidate
*i*'s pattern edges occupy.  :func:`score_pair_matrix` turns one such
matrix into censuses and aggregated bandwidths; the helpers below it
cover the subset-level quantities (induced census, preserved
bandwidth).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from ..topology.linktable import LinkTable, X, Y, Z
from .census import LinkCensus
from .effective import EffectiveBandwidthModel

#: The three Eq. 2 census axes, in (x, y, z) order.
CLASS_CODES: Tuple[int, int, int] = (X, Y, Z)


@lru_cache(maxsize=128)
def pair_slots(k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Upper-triangular pair indices of a ``k``-slot pattern.

    Memoized (and returned read-only): a pure function of ``k`` that
    every scan rebuilds otherwise — replays call it once per placement.

    Parameters
    ----------
    k:
        Number of pattern slots (GPUs requested).

    Returns
    -------
    tuple of numpy.ndarray
        Arrays ``(a, b)`` of length ``k·(k-1)/2`` with ``a[i] < b[i]``,
        enumerating slot pairs in the same ``a``-major order as the
        nested ``for a: for b in range(a+1, k)`` loops of the reference
        scan in ``tests/reference/scan.py``.
    """
    a_idx, b_idx = np.triu_indices(k, 1)
    a_idx.flags.writeable = False
    b_idx.flags.writeable = False
    return a_idx, b_idx


@lru_cache(maxsize=128)
def pair_slot_positions(k: int) -> np.ndarray:
    """Map an ordered slot pair ``(a, b)`` to its :func:`pair_slots` column.

    Memoized (and returned read-only), like :func:`pair_slots`.

    Returns
    -------
    numpy.ndarray
        A ``(k, k)`` int array where entry ``[a, b]`` (``a < b``) is the
        position of that pair in the flattened upper-triangular order;
        entries on or below the diagonal are ``-1``.
    """
    a_idx, b_idx = pair_slots(k)
    lookup = np.full((k, k), -1, dtype=np.intp)
    lookup[a_idx, b_idx] = np.arange(a_idx.size, dtype=np.intp)
    lookup.flags.writeable = False
    return lookup


def gather_codes(table: LinkTable, pair_matrix: np.ndarray) -> np.ndarray:
    """Link-class codes for a matrix of flat link-table pair indices.

    Parameters
    ----------
    table:
        The topology's precomputed link table.
    pair_matrix:
        Integer array (any shape) of flat ``row(u) * n + row(v)``
        indices.

    Returns
    -------
    numpy.ndarray
        Same-shaped array of Eq. 2 link-class codes (``X``/``Y``/``Z``).
    """
    return np.take(table.codes_flat, pair_matrix)


def gather_bandwidths(table: LinkTable, pair_matrix: np.ndarray) -> np.ndarray:
    """Peak bandwidths (GB/s) for a matrix of flat pair indices.

    See :func:`gather_codes` for the index convention.
    """
    return np.take(table.bandwidths_flat, pair_matrix)


def batch_census(codes: np.ndarray) -> np.ndarray:
    """Count link classes along the last axis of a code array.

    Parameters
    ----------
    codes:
        Integer array of link-class codes, shape ``(..., E)``.  ``E``
        may be zero (edgeless patterns census to all-zero rows).

    Returns
    -------
    numpy.ndarray
        Int64 array of shape ``(..., 3)`` holding the ``(x, y, z)``
        counts of each row — the Eq. 2 feature input.
    """
    out = np.empty(codes.shape[:-1] + (3,), dtype=np.int64)
    for axis, c in enumerate(CLASS_CODES):
        np.sum(codes == c, axis=-1, out=out[..., axis])
    return out


def batch_agg_bw(bandwidths: np.ndarray) -> np.ndarray:
    """Eq. 1 (AggBW) along the last axis of a bandwidth array.

    Link bandwidths are integer-valued (Table 1), so the sum is exact
    in float64 regardless of summation order — the result is
    bit-identical to the scalar per-edge accumulation.
    """
    return bandwidths.sum(axis=-1, dtype=np.float64)


def map_unique_censuses(census: np.ndarray, predict) -> np.ndarray:
    """Evaluate a scalar scorer once per unique census row and broadcast.

    The one place the unique-then-``np.take`` pattern lives: both
    :func:`batch_effective_bw` and the scan's
    :meth:`~repro.policies.scan.MatchTable.effective_bw` route
    through it, so the bit-identicality-critical broadcast is maintained
    in exactly one spot.

    Parameters
    ----------
    census:
        Int array of shape ``(M, 3)`` — ``(x, y, z)`` rows.
    predict:
        Callable ``(x: int, y: int, z: int) -> float`` — the *scalar*
        scorer, called once per distinct row.

    Returns
    -------
    numpy.ndarray
        Float64 array of ``M`` scores, ``predict``'s values fanned back
        out over duplicate rows with :func:`np.take`.

    Rows are deduplicated through the 1-D key ``(x·B + y)·B + z`` with
    ``B`` above every count, which sorts exactly like the rows
    themselves — ``predict`` sees the distinct censuses in the same
    ascending order ``np.unique(axis=0)`` would give, for a fraction of
    its cost.
    """
    census = np.asarray(census, dtype=np.int64)
    if census.shape[0] == 0:
        return np.zeros(0, dtype=np.float64)
    base = int(census.max()) + 1
    keys = (census[:, 0] * base + census[:, 1]) * base + census[:, 2]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    preds = np.array(
        [predict(x, y, z) for x, y, z in census[first].tolist()],
        dtype=np.float64,
    )
    return np.take(preds, inverse)


def batch_effective_bw(
    model: EffectiveBandwidthModel, census: np.ndarray
) -> np.ndarray:
    """Eq. 2 predictions for a batch of censuses, bit-equal to scalar.

    Parameters
    ----------
    model:
        The effective-bandwidth model (paper Table 2 or a refit).
    census:
        Int array of shape ``(M, 3)`` — ``(x, y, z)`` rows, e.g. from
        :func:`batch_census`.

    Returns
    -------
    numpy.ndarray
        Float64 array of ``M`` predictions.  Each *unique* census row
        is evaluated once through the scalar
        :meth:`~repro.scoring.effective.EffectiveBandwidthModel.predict`
        (so batch and scalar paths agree to the last bit) and the
        results are fanned back out via :func:`map_unique_censuses`.
    """
    return map_unique_censuses(
        census, lambda x, y, z: model.predict(float(x), float(y), float(z))
    )


def batch_preserved_bw(
    bandwidth: np.ndarray,
    free: np.ndarray,
    subsets: np.ndarray,
    within: np.ndarray,
) -> np.ndarray:
    """Eq. 3 (PreservedBW) for candidate subsets of a free set.

    Computes, per subset ``S`` of the free set ``F``, the aggregate
    pairwise bandwidth of ``F − S`` by inclusion–exclusion::

        preserved(S) = pairs(F) − Σ_{s∈S} rowsum_F(s) + pairs(S)

    with ``rowsum_F = bandwidth @ f`` for the 0/1 free vector ``f`` and
    ``pairs(F) = rowsum_F · f / 2``.  Every term is a sum of
    integer-valued bandwidths, so the result is exact — bit-identical
    to the scalar sum over the remaining pairs — in any order.

    Parameters
    ----------
    bandwidth:
        ``(n, n)`` symmetric bandwidth matrix over a GPU universe, with
        a zero diagonal.
    free:
        ``(n,)`` float 0/1 vector marking the free GPUs of the universe.
    subsets:
        ``(S, k)`` integer array of candidate subsets as row indices
        into ``bandwidth`` (all of them free).
    within:
        ``(S,)`` pairwise-bandwidth sum of each subset, ``pairs(S)``.

    Returns
    -------
    numpy.ndarray
        Float64 array of ``S`` preserved-bandwidth scores.
    """
    rowsum = bandwidth @ free
    total = rowsum @ free / 2
    lost = rowsum[subsets].sum(axis=1, dtype=np.float64)
    return total - lost + within


@dataclass(frozen=True)
class PairMatrixScores:
    """Per-candidate scores derived from one ``(M, E)`` pair matrix.

    Attributes
    ----------
    census:
        ``(M, 3)`` int array — the ``(x, y, z)`` link census of each
        candidate's matched edges (the Eq. 2 input).
    agg_bw:
        ``(M,)`` float array — Eq. 1 aggregated bandwidth per candidate.
    """

    census: np.ndarray
    agg_bw: np.ndarray

    def __len__(self) -> int:
        """Number of scored candidates (``M``)."""
        return self.agg_bw.shape[0]

    def census_of(self, i: int) -> LinkCensus:
        """The ``i``-th candidate's census as a scalar :class:`LinkCensus`."""
        x, y, z = (int(v) for v in self.census[i])
        return LinkCensus(x, y, z)


def score_pair_matrix(
    table: LinkTable, pair_matrix: np.ndarray
) -> PairMatrixScores:
    """Census and AggBW for every row of an ``(M, E)`` pair matrix.

    The generic array-level entry point: hand it the flat link-table
    indices of the hardware links each candidate match occupies and it
    resolves link classes and bandwidths with one :func:`np.take` each,
    then reduces to the ``(x, y, z)`` census and the Eq. 1 sum for all
    ``M`` candidates at once.  (The policy scan itself builds its
    matrices from the remapped ``(n, n)`` views directly — see
    :class:`repro.policies.scan.MatchTable` — so this wrapper serves
    external callers scoring explicit candidate lists.)

    Parameters
    ----------
    table:
        The topology's precomputed link table.
    pair_matrix:
        ``(M, E)`` integer array of flat pair indices
        (``row(u) * n + row(v)``); ``E`` may be zero.

    Returns
    -------
    PairMatrixScores
        The per-candidate censuses and aggregated bandwidths.
    """
    pair_matrix = np.asarray(pair_matrix)
    codes = gather_codes(table, pair_matrix)
    bws = gather_bandwidths(table, pair_matrix)
    return PairMatrixScores(
        census=batch_census(codes), agg_bw=batch_agg_bw(bws)
    )


def censuses_as_tuples(census: np.ndarray) -> Sequence[LinkCensus]:
    """Materialise an ``(M, 3)`` census array as :class:`LinkCensus` rows.

    Convenience for tests and reporting; hot paths keep the array form.
    """
    return [LinkCensus(int(x), int(y), int(z)) for x, y, z in census]
