"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.crypto import kernels
from repro.protocol.config import ProtocolConfig
from repro.protocol.setup import DeployedProtocol, deploy


def small_deployment(
    n: int = 150,
    density: float = 10.0,
    seed: int = 0,
    config: ProtocolConfig | None = None,
) -> DeployedProtocol:
    """A fresh, operational small network (each caller gets its own copy)."""
    deployed, _ = deploy(n, density, seed=seed, config=config)
    return deployed


@pytest.fixture
def keystream_backend():
    """:func:`repro.crypto.kernels.set_backend`, with the process-wide
    keystream backend restored after the test."""
    saved = kernels.active_backend()
    yield kernels.set_backend
    kernels.set_backend(saved)


@pytest.fixture
def deployed() -> DeployedProtocol:
    """Default small operational network."""
    return small_deployment()


@pytest.fixture
def deployed_plaintext() -> DeployedProtocol:
    """Small network with Step 1 disabled (fusion-capable)."""
    return small_deployment(config=ProtocolConfig(end_to_end_encryption=False))


def run_for(deployed: DeployedProtocol, seconds: float) -> None:
    """Advance the deployment's clock (simulated or transport-backed)."""
    deployed.run_for(seconds)
