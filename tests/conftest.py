"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc
import logging

import pytest

from repro.scoring.effective import EffectiveBandwidthModel
from repro.scoring.regression import fit_for_hardware
from repro.topology import (
    HardwareGraph,
    cube_mesh_16,
    dgx1_p100,
    dgx1_v100,
    summit_node,
    torus_2d_16,
)


@pytest.fixture(scope="session")
def dgx() -> HardwareGraph:
    return dgx1_v100()


@pytest.fixture(scope="session")
def p100() -> HardwareGraph:
    return dgx1_p100()


@pytest.fixture(scope="session")
def summit() -> HardwareGraph:
    return summit_node()


@pytest.fixture(scope="session")
def torus() -> HardwareGraph:
    return torus_2d_16()


@pytest.fixture(scope="session")
def cubemesh() -> HardwareGraph:
    return cube_mesh_16()


@pytest.fixture(scope="session")
def dgx_model(dgx) -> EffectiveBandwidthModel:
    """Eq. 2 model refit against the simulated microbenchmark on DGX-V."""
    model, _, _ = fit_for_hardware(dgx)
    return model


class _AsyncioErrors(logging.Handler):
    """Collects what asyncio's default exception handler logs."""

    def __init__(self) -> None:
        super().__init__(level=logging.ERROR)
        self.messages = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


@pytest.fixture
def no_pending_tasks():
    """Fail the test if an asyncio task is destroyed while still pending.

    asyncio reports such a task from its finalizer through the loop's
    exception handler, which logs to the ``asyncio`` logger; the
    collection at teardown makes the finalizer run inside this test.
    """
    handler = _AsyncioErrors()
    logger = logging.getLogger("asyncio")
    logger.addHandler(handler)
    try:
        yield
        gc.collect()
    finally:
        logger.removeHandler(handler)
    destroyed = [m for m in handler.messages if "Task was destroyed" in m]
    assert not destroyed, destroyed
