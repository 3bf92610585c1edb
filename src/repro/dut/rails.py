"""Build DUT power rails from compact spec strings.

The CLI tools and URI device specs describe the device under test as a
short string — ``load:8.0@12.0``, ``gpu:rtx4000ada``, ``const:2@5`` —
and every layer (CLI flags, ``sim://`` specs, the fleet builder) resolves
it through :func:`build_rail`.
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError
from repro.dut.base import ConstantRail
from repro.dut.gpu import Gpu, KernelLaunch
from repro.dut.instruments import ElectronicLoad, LabSupply, LoadedSupplyRail

#: One-line spec reference for CLI help strings.
DUT_SPEC_HELP = (
    "'load:<amps>@<volts>', 'gpu:<key>' (repeating synthetic workload), "
    "'const:<amps>@<volts>', or 'none'"
)


def build_rail(dut: str, seed: int = 0):
    """Resolve a DUT spec string to a power rail (``None`` for 'none').

    A malformed spec raises :class:`ConfigurationError`.
    """
    dut = dut.strip().lower()
    try:
        return _build_rail(dut)
    except ValueError as error:
        raise ConfigurationError(f"bad DUT spec {dut!r}: {error}") from None


def _build_rail(dut: str):
    if dut in ("none", ""):
        return None
    if dut.startswith("load:"):
        spec = dut.split(":", 1)[1]
        amps_text, _, volts_text = spec.partition("@")
        load = ElectronicLoad()
        load.set_current(float(amps_text))
        return LoadedSupplyRail(LabSupply(float(volts_text or 12.0)), load)
    if dut.startswith("gpu:"):
        key = dut.split(":", 1)[1] or "rtx4000ada"
        gpu = Gpu(key)
        # A repeating 2-second synthetic workload with 1 s of idle between.
        for k in range(20):
            gpu.launch(
                KernelLaunch(start=1.0 + 3.0 * k, duration=2.0, n_waves=8)
            )
        trace = gpu.render(t_end=62.0, dt=5e-4)
        return gpu.rails(trace)["ext_12v"]
    if dut.startswith("const:"):
        spec = dut.split(":", 1)[1]
        amps_text, _, volts_text = spec.partition("@")
        return ConstantRail(float(volts_text or 12.0), float(amps_text))
    raise ConfigurationError(f"unknown DUT spec {dut!r} (expected {DUT_SPEC_HELP})")
