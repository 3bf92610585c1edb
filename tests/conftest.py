"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.common.rng import RngStream
from repro.core.setup import SimulatedSetup
from repro.dut.instruments import ElectronicLoad, LabSupply, LoadedSupplyRail


@pytest.fixture
def rng() -> RngStream:
    return RngStream(1234, "tests")


def make_loaded_setup(
    amps: float = 8.0,
    volts: float = 12.0,
    module: str = "pcie_slot_12v",
    direct: bool = True,
    seed: int = 0,
    calibration_samples: int = 8192,
    **setup_kwargs,
) -> SimulatedSetup:
    """A one-module bench driving a constant load (shared helper).

    Extra keyword arguments (``faults``, ``recovery``, ``registry``, ...)
    pass straight through to :class:`SimulatedSetup`.
    """
    setup = SimulatedSetup(
        [module],
        seed=seed,
        direct=direct,
        calibration_samples=calibration_samples,
        **setup_kwargs,
    )
    load = ElectronicLoad()
    load.set_current(amps)
    setup.connect(0, LoadedSupplyRail(LabSupply(volts), load))
    return setup


def make_faulty_setup(faults, seed: int = 0, amps: float = 4.0, **kwargs) -> SimulatedSetup:
    """A protocol-path bench with fault injection on the serial link."""
    return make_loaded_setup(
        amps=amps, direct=False, seed=seed, faults=faults, **kwargs
    )


@pytest.fixture
def loaded_setup() -> SimulatedSetup:
    setup = make_loaded_setup()
    yield setup
    setup.close()


@pytest.fixture
def protocol_setup() -> SimulatedSetup:
    setup = make_loaded_setup(direct=False)
    yield setup
    setup.close()
