"""Baseboard: slots, wiring, and raw ADC acquisition."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import RngStream
from repro.dut.base import ConstantRail
from repro.hardware.adc import AdcTiming
from repro.hardware.baseboard import CHANNELS, Baseboard
from repro.hardware.modules import SensorModule


def make_board(slots=(0,)) -> Baseboard:
    board = Baseboard()
    for slot in slots:
        module = SensorModule.manufacture(
            "pcie_slot_12v", RngStream(slot, "board"), perfect=True
        )
        board.attach(slot, module)
    return board


def test_attach_and_populated():
    board = make_board((0, 2))
    assert [c.slot for c in board.populated_slots()] == [0, 2]


def test_attach_twice_fails():
    board = make_board((1,))
    with pytest.raises(ConfigurationError, match="already populated"):
        board.attach(1, SensorModule.manufacture("usbc", RngStream(9)))


def test_attach_out_of_range():
    board = Baseboard()
    with pytest.raises(ConfigurationError):
        board.attach(4, SensorModule.manufacture("usbc", RngStream(9)))


def test_connect_requires_module():
    board = Baseboard()
    with pytest.raises(ConfigurationError, match="not populated"):
        board.connect(0, ConstantRail(12.0, 1.0))


def test_detach():
    board = make_board((0,))
    board.detach(0)
    assert board.populated_slots() == []


def test_read_codes_shape():
    board = make_board((0,))
    board.connect(0, ConstantRail(12.0, 2.0))
    codes = board.read_codes(0.0, 10)
    assert codes.shape == (10, board.timing.averages, CHANNELS)
    assert codes.dtype == np.int16
    assert board.averaged_codes(0.0, 10).dtype == np.int64


def test_resolution_beyond_int16_codes_rejected():
    with pytest.raises(ConfigurationError, match="15 bits"):
        Baseboard(AdcTiming(resolution_bits=16))


def test_unpopulated_channels_read_zero():
    board = make_board((0,))
    board.connect(0, ConstantRail(12.0, 2.0))
    codes = board.read_codes(0.0, 5)
    assert (codes[:, :, 2:] == 0).all()


def test_unconnected_module_reads_zero_input():
    board = make_board((0,))
    codes = board.averaged_codes(0.0, 200)
    # Current channel sits at midscale (1.65 V ~ code 512), voltage at 0.
    assert abs(codes[:, 0].mean() - 512) < 3
    assert codes[:, 1].max() <= 2


def test_averaged_codes_track_load():
    board = make_board((0,))
    board.connect(0, ConstantRail(12.0, 5.0))
    codes = board.averaged_codes(0.0, 500)
    lsb = board.adc.lsb
    volts_u = (codes[:, 1].mean() + 0.5) * lsb
    volts_i = (codes[:, 0].mean() + 0.5) * lsb
    assert volts_u == pytest.approx(12.0 * 0.125, rel=0.01)
    assert volts_i == pytest.approx(1.65 + 5.0 * 0.12, rel=0.01)


def test_averaged_codes_are_10bit():
    board = make_board((0,))
    board.connect(0, ConstantRail(26.4, 10.0))
    codes = board.averaged_codes(0.0, 50)
    assert codes.max() <= 1023
    assert codes.min() >= 0


def test_slot_read_matches_the_board_read_and_leaves_other_slots_alone():
    # Slot 2 read alone gives the same codes as a board read of a board
    # holding only slot 2, and draws none of slot 0's noise.
    alone, board = make_board((2,)), make_board((0, 2))
    for b in (alone, board):
        b.connect(2, ConstantRail(12.0, 3.0))
    want = alone.averaged_codes(0.5, 300)[:, 4:6]
    np.testing.assert_array_equal(board.slot_averaged_codes(2, 0.5, 300), want)
    slot0 = make_board((0,)).averaged_codes(0.0, 100)[:, 0:2]
    np.testing.assert_array_equal(board.averaged_codes(0.0, 100)[:, 0:2], slot0)


@pytest.mark.parametrize("averages", range(1, 17))
@pytest.mark.parametrize("n_output", [0, 1, 7, 1000])
def test_average_matches_the_strided_sum(averages, n_output):
    board = Baseboard(AdcTiming(averages=averages))
    rng = np.random.default_rng(17 * averages + n_output)
    # Codes over the whole non-negative int16 range, so the sums overflow int16.
    raw = rng.integers(0, 1 << 15, (n_output, averages, CHANNELS)).astype(np.int16)
    want = (raw.sum(axis=1, dtype=np.int64) + averages // 2) // averages
    got = board._average(raw)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def test_display_present_with_precomputed_fonts():
    board = Baseboard()
    assert board.display.stats.glyph_cache_misses > 0  # precompute ran
