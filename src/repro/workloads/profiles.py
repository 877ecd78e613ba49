"""Per-workload communication profiles (paper Fig. 5).

Each workload carries the quantities the paper characterises in
section 2.3: how many collective calls it makes, how large its messages
are (a lognormal distribution whose CDF reproduces the shape of
Fig. 5a), whether it is bandwidth sensitive, and the raw call counts the
paper prints in Fig. 5b.

Substitution note (DESIGN.md #2/#6): the paper's call counts are
reported per GPU per iteration as measured by instrumented Caffe runs;
our execution-time model uses physically-scaled per-iteration values
(``calls_per_iter`` ≈ number of gradient tensors) plus total bytes moved,
which is what actually determines training time.  The paper's published
counts are preserved verbatim in ``paper_calls_per_iter`` so the Fig. 5b
table can be regenerated exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class CommProfile:
    """Communication behaviour of one workload.

    Attributes
    ----------
    calls_per_iter:
        Collective calls per training iteration in the execution-time
        model (≈ one per gradient tensor).
    bytes_per_iter:
        Total bytes a GPU contributes to collectives per iteration
        (≈ 2 × gradient size for ring all-reduce accounting).
    sigma:
        Lognormal shape of the per-call message-size distribution.
    paper_calls_per_iter:
        The verbatim Fig. 5b count (``None`` for the non-NN workloads the
        paper characterises only qualitatively).
    """

    calls_per_iter: int
    bytes_per_iter: float
    sigma: float
    paper_calls_per_iter: Optional[int] = None

    @property
    def mean_message_bytes(self) -> float:
        """Average collective message size (total bytes / calls)."""
        return self.bytes_per_iter / self.calls_per_iter

    @property
    def median_message_bytes(self) -> float:
        """Median of the lognormal message-size distribution.

        Chosen so the distribution's *mean* equals
        :attr:`mean_message_bytes` (lognormal mean = median·e^{σ²/2}).
        """
        return self.mean_message_bytes / math.exp(self.sigma**2 / 2.0)

    # ------------------------------------------------------------------ #
    def message_size_cdf(self, sizes_bytes: Sequence[float]) -> np.ndarray:
        """CDF of per-call message sizes at the given points (Fig. 5a)."""
        s = np.asarray(sizes_bytes, dtype=float)
        out = np.zeros_like(s)
        positive = s > 0
        z = (np.log(s[positive]) - math.log(self.median_message_bytes)) / self.sigma
        out[positive] = 0.5 * (1.0 + _erf_vec(z / math.sqrt(2.0)))
        return out

    def sample_message_sizes(
        self, n: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``n`` message sizes from the lognormal model (bytes)."""
        return rng.lognormal(
            mean=math.log(self.median_message_bytes), sigma=self.sigma, size=n
        )


_erf_obj = np.frompyfunc(math.erf, 1, 1)


def _erf_vec(x: np.ndarray) -> np.ndarray:
    """Element-wise :func:`math.erf` as float64."""
    return _erf_obj(x).astype(np.float64)
