"""Allocation-as-a-service: the MAPA schedulers behind a socket.

The batch layers (single-server and fleet replay) construct a scheduler,
run a trace, and exit.  This package keeps one alive: an asyncio
daemon (:mod:`~repro.serve.daemon`) speaking newline-delimited JSON
(:mod:`~repro.serve.protocol`), a blocking client
(:mod:`~repro.serve.client`), and a pipelined load generator
(:mod:`~repro.serve.bench`).  ``mapa serve`` / ``mapa client`` are the
CLI front-ends.
"""

from .bench import SERVE_BENCH_FLEET, LoadReport, bench_jobs, run_load
from .client import AllocationClient
from .daemon import (
    AllocationDaemon,
    DaemonConfig,
    DaemonHandle,
    ServeMetrics,
    start_daemon_thread,
)
from .protocol import (
    MAX_LINE_BYTES,
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    SubmitSpec,
    decode_line,
    encode_line,
)

__all__ = [
    "AllocationClient",
    "AllocationDaemon",
    "DaemonConfig",
    "DaemonHandle",
    "LoadReport",
    "MAX_LINE_BYTES",
    "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "SERVE_BENCH_FLEET",
    "ServeMetrics",
    "SubmitSpec",
    "bench_jobs",
    "decode_line",
    "encode_line",
    "run_load",
    "start_daemon_thread",
]
