"""Fault injection: corrupted streams, fragmented reads, odd inputs.

The host library of a real measurement instrument must survive a noisy
serial link; these tests inject the failure modes a physical deployment
sees and check the pipeline degrades gracefully.
"""

import numpy as np
import pytest

from repro.core.sources import ProtocolSampleSource
from repro.core.setup import SimulatedSetup
from repro.dut.instruments import ElectronicLoad, LabSupply, LoadedSupplyRail
from tests.conftest import make_faulty_setup, make_loaded_setup


def corrupting_setup(seed=0):
    setup = make_loaded_setup(direct=False, seed=seed)
    return setup


def test_dropped_byte_loses_at_most_one_sample():
    """A single lost byte resynchronises within the same sample set."""
    setup = corrupting_setup()
    source: ProtocolSampleSource = setup.source
    link = setup.link
    link.write(b"S") if not setup.firmware.streaming else None
    data = bytearray(setup.firmware.produce(100))
    del data[37]  # drop one mid-stream byte
    block = source._decode(bytes(data), 100)
    assert 98 <= len(block) <= 100
    assert source._decoder.resync_count >= 1
    # Subsequent clean data decodes normally.
    clean = source._decode(setup.firmware.produce(50), 50)
    assert len(clean) == 50
    setup.close()


def test_flipped_flag_bit_recovers():
    setup = corrupting_setup(seed=1)
    source = setup.source
    data = bytearray(setup.firmware.produce(50))
    data[12] ^= 0x80  # flip a first/second-byte flag
    block = source._decode(bytes(data), 50)
    assert len(block) >= 48
    clean = source._decode(setup.firmware.produce(50), 50)
    assert len(clean) == 50
    setup.close()


def test_random_noise_burst_does_not_crash_decoder():
    setup = corrupting_setup(seed=2)
    source = setup.source
    rng = np.random.default_rng(0)
    garbage = rng.integers(0, 256, size=64, dtype=np.uint8).tobytes()
    source._decode(garbage, 0)  # must not raise
    block = source._decode(setup.firmware.produce(20), 20)
    assert 18 <= len(block) <= 21  # garbage may have left a partial sample
    setup.close()


def test_fragmented_reads_equal_bulk_read():
    """Reading the link one byte at a time decodes identically."""
    bulk = make_loaded_setup(direct=False, seed=3)
    frag = make_loaded_setup(direct=False, seed=3)

    bulk_block = bulk.ps.pump(40)

    source = frag.source
    data = frag.link.pump_samples(40)
    pieces = []
    for i in range(len(data)):
        piece = source._decode(data[i : i + 1], 0)
        if len(piece):
            pieces.append(piece.values)
    frag_values = np.concatenate(pieces)
    assert frag_values.shape[0] == 40
    assert np.allclose(frag_values[:, :2], bulk_block.values[:, :2])
    bulk.close()
    frag.close()


def test_corrupted_samples_barely_move_long_energy():
    """Energy over a long capture tolerates sporadic byte loss."""
    setup = corrupting_setup(seed=4)
    source = setup.source
    total = 0.0
    count = 0
    rng = np.random.default_rng(1)
    for _ in range(20):
        data = bytearray(setup.firmware.produce(100))
        if rng.random() < 0.5:
            del data[int(rng.integers(0, len(data)))]
        block = source._decode(bytes(data), 100)
        if len(block):
            total += float(block.pair_power(0).sum()) / 20_000.0
            count += len(block)
    # ~2000 samples at ~96 W -> ~9.6 J; a handful of lost samples is <1 %.
    expected = count * 96.0 / 20_000.0
    assert total == pytest.approx(expected, rel=0.02)
    setup.close()


def test_eeprom_image_corruption_detected():
    from repro.common.errors import ConfigurationError
    from repro.hardware.eeprom import VirtualEeprom

    image = VirtualEeprom().pack()
    with pytest.raises(ConfigurationError):
        VirtualEeprom.unpack(image[:-1])


def test_dump_reader_ignores_blank_lines(tmp_path):
    from repro.core.dump import DumpReader

    path = tmp_path / "gappy.txt"
    path.write_text(
        "# PowerSensor3 dump\n"
        "# sample_rate_hz: 20000.0\n"
        "# pairs: p0\n"
        "# columns: time_s V I total_W\n"
        "\n"
        "0.0000500 12.0 1.0 12.0\n"
        "\n"
        "0.0001000 12.0 1.0 12.0\n"
    )
    data = DumpReader.read(path)
    assert data.times.size == 2


def test_zero_current_setpoint_and_negative_loads():
    """The bench handles zero and negative (sourcing) currents."""
    setup = make_loaded_setup(amps=0.0)
    block = setup.ps.pump(2000)
    assert block.pair_current(0).mean() == pytest.approx(0.0, abs=0.05)
    setup.close()

    negative = make_loaded_setup(amps=-5.0, seed=5)
    negative.ps.pump_seconds(0.01)
    block = negative.ps.pump(2000)
    assert block.pair_current(0).mean() == pytest.approx(-5.0, abs=0.1)
    assert block.pair_power(0).mean() == pytest.approx(-60.0, rel=0.02)
    negative.close()


def test_current_beyond_range_clips_visibly():
    """Overdriving a module saturates the reading instead of wrapping."""
    setup = make_loaded_setup(amps=25.0, seed=6)  # 2.5x the module's range
    setup.ps.pump_seconds(0.01)
    block = setup.ps.pump(1000)
    reading = block.pair_current(0).mean()
    assert 13.0 < reading < 15.0  # clipped at the ADC rail, not 25 A
    setup.close()


# --------------------------------------------------------------------- #
# Fault injection subsystem                                             #
# --------------------------------------------------------------------- #

from repro.common.errors import (  # noqa: E402
    ConfigurationError as _ConfigurationError,
    StreamStalledError,
    TransportError,
)
from repro.core.setup import SimulatedSetup as _Setup  # noqa: E402
from repro.transport.faults import (  # noqa: E402
    BitFlips,
    DeviceStall,
    DroppedBytes,
    FaultModel,
    FaultySerialLink,
    OverflowBurst,
    PartialReads,
    parse_fault_spec,
)


def test_dropped_bytes_model_is_deterministic():
    data = bytes(range(200))
    a = DroppedBytes(0.2)
    b = DroppedBytes(0.2)
    out_a = a.transform(data, np.random.default_rng(7))
    out_b = b.transform(data, np.random.default_rng(7))
    assert out_a == out_b
    assert a.injected == len(data) - len(out_a) > 0


def test_bit_flips_model_counts_corruptions():
    data = bytes(200)
    model = BitFlips(0.1)
    out = model.transform(data, np.random.default_rng(0))
    assert len(out) == len(data)
    differing = sum(1 for x, y in zip(data, out) if x != y)
    assert differing == model.injected > 0


def test_partial_reads_lose_no_bytes():
    model = PartialReads(probability=1.0)
    rng = np.random.default_rng(3)
    chunks = [bytes([k] * 50) for k in range(10)]
    delivered = b"".join(model.transform(c, rng) for c in chunks)
    delivered += model.transform(b"", rng) + model._backlog
    assert delivered == b"".join(chunks)
    assert model.injected > 0


def test_partial_reads_backlog_overflow_raises():
    model = PartialReads(probability=1.0, max_fraction=0.0, max_backlog=100)
    rng = np.random.default_rng(0)
    with pytest.raises(TransportError, match="overflow"):
        for _ in range(5):
            model.transform(bytes(60), rng)


def test_device_stall_swallows_reads():
    model = DeviceStall(probability=1.0, duration_reads=3)
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert model.transform(b"data", rng) == b""
    assert model.injected == 5


def test_overflow_burst_prepends_garbage():
    model = OverflowBurst(probability=1.0, burst_bytes=32)
    out = model.transform(b"tail", np.random.default_rng(0))
    assert len(out) == 32 + 4
    assert out.endswith(b"tail")
    assert model.injected == 1


def test_parse_fault_spec_round_trip():
    models = parse_fault_spec("drop:0.01, flip:0.002, stall:0.1@7, burst:0.05@64, partial:0.3")
    assert [m.name for m in models] == ["drop", "flip", "stall", "burst", "partial"]
    assert models[2].duration_reads == 7
    assert models[3].burst_bytes == 64
    with pytest.raises(_ConfigurationError):
        parse_fault_spec("gremlins:0.5")


def test_no_fault_wrapper_is_byte_identical():
    """With no fault models the wrapper must not perturb the stream."""
    bare = make_loaded_setup(direct=False, seed=11)
    wrapped = make_loaded_setup(direct=False, seed=11)
    faulty = FaultySerialLink(wrapped.link, [], seed=0)
    assert bare.link.pump_samples(200) == faulty.pump_samples(200)
    bare.close()
    wrapped.close()


def test_faulty_setup_decodes_most_samples_and_accounts_drops():
    setup = make_faulty_setup("drop:0.002", seed=12)
    block = setup.ps.pump(5000)
    health = setup.ps.health
    assert 4500 <= len(block) <= 5000
    assert health.packets_dropped > 0
    assert health.samples_decoded == len(block)
    assert setup.link.injected()["drop"] > 0
    setup.close()


def test_stream_health_accounts_every_packet_on_single_drop():
    """Dropping one byte loses exactly one packet, and the books balance."""
    setup = make_loaded_setup(direct=False, seed=13)
    source = setup.source
    data = bytearray(setup.firmware.produce(100))
    total_packets = len(data) // 2
    del data[41]
    source._decode(bytes(data), 100)
    health = source.health
    assert health.packets_dropped == 1
    assert health.packets_decoded == total_packets - 1
    assert health.packets_decoded + health.packets_dropped == total_packets
    setup.close()


def test_burst_faults_resync_and_bridge_gaps():
    setup = make_faulty_setup("burst:0.2@64", seed=14)
    for _ in range(20):
        setup.ps.pump(100)
    health = setup.ps.health
    assert health.packets_dropped > 0  # garbage swept out by resync
    assert health.samples_decoded > 1800  # stream survives
    setup.close()


class _TransientBlackout(FaultModel):
    """Swallow the first ``n`` reads, then pass everything through."""

    name = "blackout"

    def __init__(self, n: int) -> None:
        super().__init__()
        self.n = n

    def transform(self, data, rng):
        if self.n > 0:
            self.n -= 1
            self.injected += 1
            return b""
        return data


def test_recovery_policy_retries_through_transient_blackout():
    setup = make_faulty_setup([_TransientBlackout(2)], seed=15)
    block = setup.ps.pump(50)
    health = setup.ps.health
    assert len(block) > 0  # recovered within the retry budget
    assert health.empty_reads == 1
    assert 1 <= health.retries <= 4
    assert health.stalls == 0
    setup.close()


def test_retry_exhaustion_raises_stream_stalled():
    setup = make_faulty_setup("dead", seed=16)
    with pytest.raises(StreamStalledError):
        setup.ps.pump(100)
    assert setup.ps.health.stalls == 1
    assert setup.ps.health.retries == 4  # the full default budget
    setup.close()


def test_recovery_disabled_returns_empty_block():
    setup = make_faulty_setup("dead", seed=17, recovery=None)
    block = setup.ps.pump(100)
    assert len(block) == 0
    assert setup.ps.health.empty_reads == 1
    setup.close()


def test_direct_path_rejects_fault_injection():
    with pytest.raises(_ConfigurationError):
        _Setup(["pcie_slot_12v"], direct=True, faults="drop:0.1")


# --------------------------------------------------------------------- #
# Observability: injected faults == registry-observed faults            #
# --------------------------------------------------------------------- #

from repro.core.health import StreamHealth  # noqa: E402
from repro.observability import MetricsRegistry  # noqa: E402


@pytest.mark.parametrize(
    "spec",
    [
        "drop:0.01",
        "flip:0.005",
        "partial:0.3",
        "stall:0.3@3",
        "burst:0.2@64",
        "drop:0.01, flip:0.005, burst:0.1@32",
        "dead",
    ],
)
def test_injected_fault_counts_match_registry(spec):
    """Every corruption a fault model injects lands in the registry.

    The fault layer mirrors each model's ``injected`` count into
    ``faults_injected_total{model=...}``; after any amount of streaming
    (including a stalled stream) the two books must balance exactly, and
    the StreamHealth view must equal its registry counters.
    """
    setup = make_faulty_setup(spec, seed=21)
    try:
        for _ in range(10):
            try:
                setup.ps.pump(200)
            except StreamStalledError:
                break
        injected = setup.link.injected()
        observed = {
            model: setup.registry.value("faults_injected_total", model=model)
            for model in injected
        }
        assert observed == injected
        assert sum(injected.values()) > 0
        assert setup.ps.health.as_dict() == StreamHealth.counters_in(setup.registry)
    finally:
        setup.close()


def test_fault_mirror_survives_partial_overflow_raise():
    """The registry mirror stays in sync even when a model raises."""
    setup = make_loaded_setup(direct=False, seed=22)
    registry = MetricsRegistry()
    model = PartialReads(probability=1.0, max_fraction=0.0, max_backlog=100)
    faulty = FaultySerialLink(setup.link, [model], seed=0, registry=registry)
    with pytest.raises(TransportError, match="overflow"):
        for _ in range(50):
            faulty.pump_samples(10)
    assert model.injected > 0
    assert registry.value("faults_injected_total", model="partial") == model.injected
    setup.close()


# --------------------------------------------------------------------- #
# pump_seconds drift (fractional-sample remainder)                      #
# --------------------------------------------------------------------- #


def test_powersensor_pump_seconds_carries_remainder():
    setup = make_loaded_setup()
    # 0.6 samples per call: naive per-call rounding would pump 1 each
    # (100 samples); the remainder carry must pump exactly 60.
    for _ in range(100):
        setup.ps.pump_seconds(0.00003)
    assert setup.ps.samples_seen == 60
    setup.close()
