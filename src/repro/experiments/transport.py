"""How a sweep worker returns a finished cell to the parent.

A worker encodes its :class:`~repro.sim.records.SimulationLog` with the
columnar ``.mlog`` codec and returns a :class:`CellHandle` carrying the
encoded bytes over the :class:`~concurrent.futures.ProcessPoolExecutor`
pipe — a fraction of the pickled per-job record list.  The parent
persists those bytes as-is with
:meth:`~repro.experiments.store.ResultStore.save_payload` and decodes
them lazily, so summary-only readers never materialise per-job records.

A log the codec cannot represent
(:class:`~repro.sim.records.MlogEncodeError`) comes back as a plain
:class:`~repro.experiments.store.CellResult` instead; the input picks
that path, not an option.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import List, Optional, Union

from ..sim.records import MlogEncodeError, decode_mlog, encode_mlog
from .store import CellResult

_RUN_COUNTER = itertools.count()


def new_run_id() -> str:
    """A per-run token, unique within this process.

    Part of the import surface of ``benchmarks/perf/wl_sweep.py``.
    """
    return f"{os.getpid()}-{next(_RUN_COUNTER)}"


@dataclass(frozen=True)
class TransportConfig:
    """Per-run transport settings: only the run token is left.

    :func:`pack_result` needs nothing from it; it stays because
    ``benchmarks/perf/wl_sweep.py`` calls
    ``pack_result(result, TransportConfig(run_id=new_run_id()))``.
    """

    run_id: str


@dataclass(frozen=True)
class CellHandle:
    """What crosses the worker pipe: a cell's encoded ``.mlog`` bytes."""

    config_hash: str
    label: str
    payload: bytes


#: Anything a sweep worker may return for one simulated cell.
CellReturn = Union[CellHandle, CellResult]


def pack_result(
    result: CellResult, config: Optional[TransportConfig] = None
) -> CellReturn:
    """Encode ``result`` for the trip back to the parent.

    Called in the worker process right after
    :func:`~repro.experiments.runner.simulate_cell`.  ``config`` is
    unused; it keeps the call shape of ``benchmarks/perf/wl_sweep.py``,
    which imports this function.
    """
    try:
        payload = encode_mlog(
            result.log,
            meta={"config_hash": result.config_hash, "label": result.label},
        )
    except MlogEncodeError:
        return result
    return CellHandle(result.config_hash, result.label, payload)


class ArenaReader:
    """Parent-side decoder of the handles one sweep's workers returned.

    It holds no state.  Its name, :meth:`materialize`,
    :meth:`segment_names` and :meth:`close` are the import surface of
    ``benchmarks/perf/wl_sweep.py``, which is why they stay.
    """

    def segment_names(self) -> List[str]:
        """Shared-memory segments attached: always none."""
        return []

    def materialize(self, handle: CellHandle) -> CellResult:
        """Decode ``handle`` into a :class:`CellResult` with a lazy log."""
        _, log = decode_mlog(handle.payload, lazy=True)
        return CellResult(
            config_hash=handle.config_hash,
            label=handle.label,
            log=log,
            cached=False,
        )

    def close(self) -> None:
        """Nothing to release."""
