"""CLI tools run end to end against the simulated bench."""

import re
import sys

import pytest

from repro.cli import psconfig, psinfo, psrun, pstest

FAST = ["--direct", "--modules", "pcie_slot_12v", "--dut", "load:4.0@12.0"]


def test_psinfo_shows_readings(capsys):
    assert psinfo.main(FAST) == 0
    out = capsys.readouterr().out
    assert "total power" in out
    assert "pcie_slot_12v" in out
    assert "48" in out  # ~48 W of the 4 A / 12 V load


def test_pstest_intervals(capsys):
    assert pstest.main(FAST + ["--intervals", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count(" s ") >= 3
    assert "0.0010" in out


def test_pstest_capture_summary(capsys):
    assert pstest.main(FAST + ["--intervals", "1", "--capture", "4000"]) == 0
    out = capsys.readouterr().out
    assert "captured 4000 samples" in out
    assert "std=" in out


def test_pstest_dump(tmp_path, capsys):
    path = tmp_path / "d.txt"
    assert pstest.main(FAST + ["--intervals", "1", "--dump", str(path)]) == 0
    assert path.exists()
    assert path.read_text().startswith("# PowerSensor3 dump")


def test_psconfig_show_sensor(capsys):
    assert psconfig.main(FAST + ["--sensor", "0"]) == 0
    assert "SensorConfig" in capsys.readouterr().out


def test_psconfig_update_sensor(capsys):
    assert psconfig.main(FAST + ["--sensor", "0", "--name", "renamed"]) == 0
    assert "renamed" in capsys.readouterr().out


def test_psconfig_calibrate(capsys):
    assert psconfig.main(FAST + ["--calibrate", "--samples", "4096"]) == 0
    out = capsys.readouterr().out
    assert "vref=" in out


def test_psconfig_calibrate_on_the_protocol_path(capsys):
    # The device answers config reads only while not streaming; the
    # refreshed config must carry the calibrated reference.
    args = ["--modules", "pcie_slot_12v", "--dut", "none", "--calibrate"]
    assert psconfig.main(args + ["--samples", "4096", "--sensor", "0"]) == 0
    out = capsys.readouterr().out
    calibrated = re.search(r"slot 0: vref=(\d\.\d{5}) V", out).group(1)
    assert f"vref={calibrated}" in out.splitlines()[-1]


def test_psconfig_reboot_byte_path(capsys):
    args = ["--modules", "pcie_slot_12v", "--dut", "none", "--reboot"]
    assert psconfig.main(args) == 0
    assert "rebooted" in capsys.readouterr().out


def test_psrun_measures_command(capsys):
    code = psrun.main(FAST + ["--time-scale", "5", "--", sys.executable, "-c", "pass"])
    assert code == 0
    captured = capsys.readouterr()
    assert "exit status: 0" in captured.err
    assert " J, " in captured.out


def test_psrun_propagates_exit_code():
    code = psrun.main(
        FAST + ["--", sys.executable, "-c", "import sys; sys.exit(3)"]
    )
    assert code == 3


def test_psrun_requires_command():
    with pytest.raises(SystemExit):
        psrun.main(FAST)


def test_gpu_dut_spec(capsys):
    assert psinfo.main(["--direct", "--dut", "gpu:rtx4000ada"]) == 0
    assert "total power" in capsys.readouterr().out


def test_bad_dut_spec(capsys):
    assert psinfo.main(["--dut", "quantum:1"]) == 74
    assert "unknown DUT spec 'quantum:1'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--device", "sim://pcie_slot_12v?seed=abc"],
        ["--device", "sim://pcie_slot_12v?calibrate=maybe"],
        ["--device", "sim://pcie_slot_12v?dut=quantum:1"],
        ["--device", "pcie_slot_12v?frobnicate=1"],
        ["--dut", "load:abc@12"],
    ],
)
def test_malformed_spec_exits_74_without_traceback(argv, capsys):
    assert psinfo.main(argv) == 74
    err = capsys.readouterr().err
    assert err.startswith("psinfo: ConfigurationError: ")
    assert "Traceback" not in err


def test_psinfo_replays_a_recorded_store(tmp_path, capsys):
    rec = tmp_path / "rec"
    record = ["--time-scale", "50", "--record-store", str(rec)]
    code = psrun.main(FAST + record + ["--", sys.executable, "-c", "pass"])
    assert code == 0
    capsys.readouterr()
    assert psinfo.main(["--device", f"store://{rec}"]) == 0
    assert "total power" in capsys.readouterr().out


def test_psplot_renders_chart(tmp_path, capsys):
    from repro.cli import psplot

    path = tmp_path / "plot.dump"
    args = FAST + ["--intervals", "1", "--capture", "4000", "--dump", str(path)]
    assert pstest.main(args) == 0
    capsys.readouterr()
    assert psplot.main([str(path), "--width", "40", "--height", "8"]) == 0
    out = capsys.readouterr().out
    assert "samples at 20000 Hz" in out
    assert "#" in out
    assert "W |" in out


def test_psplot_specific_pair(tmp_path, capsys):
    from repro.cli import psplot

    path = tmp_path / "plot2.dump"
    assert pstest.main(FAST + ["--intervals", "1", "--dump", str(path)]) == 0
    capsys.readouterr()
    assert psplot.main([str(path), "--pair", "0"]) == 0
    assert "pcie_slot_12v" in capsys.readouterr().out


def test_psplot_bad_pair(tmp_path, capsys):
    import pytest as _pytest

    from repro.cli import psplot

    path = tmp_path / "plot3.dump"
    assert pstest.main(FAST + ["--intervals", "1", "--dump", str(path)]) == 0
    with _pytest.raises(SystemExit):
        psplot.main([str(path), "--pair", "3"])


def test_psmonitor_reports_rolling_stats(capsys):
    from repro.cli import psmonitor

    args = FAST + ["--duration", "2", "--interval", "0.5", "--fast"]
    assert psmonitor.main(args) == 0
    out = capsys.readouterr().out
    assert out.count("s ") >= 4  # four interval rows
    assert "total energy" in out
    assert "mean 47." in out or "mean 48." in out  # 4 A at 12 V


def test_psmonitor_validates_arguments():
    from repro.cli import psmonitor

    with pytest.raises(SystemExit):
        psmonitor.main(FAST + ["--duration", "0"])


# --------------------------------------------------------------------- #
# Error handling, graceful degradation, fault injection                 #
# --------------------------------------------------------------------- #

PROTO = ["--modules", "pcie_slot_12v", "--dut", "load:4.0@12.0"]


def test_psrun_zero_duration_reports_na_watts():
    from repro.core.state import State

    state = State(time=1.0, consumed_energy=(2.0,) * 4, current=(0,) * 4, voltage=(0,) * 4)
    assert psrun.format_measurement(state, state) == "0.000 s, 0.000 J, n/a W"


def test_psrun_missing_command_cleans_up(tmp_path, capsys):
    dump = tmp_path / "leak.txt"
    code = psrun.main(FAST + ["--dump", str(dump), "--", "/nonexistent-binary-zz"])
    assert code == psrun.EXIT_COMMAND_NOT_RUN
    assert "cannot run" in capsys.readouterr().err
    # The dump writer was closed by the finally-path cleanup.
    assert dump.read_text().startswith("# PowerSensor3 dump")


def test_psrun_dead_stream_fails_cleanly(capsys):
    code = psrun.main(PROTO + ["--faults", "dead", "--", sys.executable, "-c", "pass"])
    assert code == 69  # StreamStalledError
    err = capsys.readouterr().err
    assert "StreamStalledError" in err
    assert "Traceback" not in err


def test_psmonitor_dead_stream_fails_cleanly(capsys):
    from repro.cli import psmonitor

    args = PROTO + ["--faults", "dead", "--fast", "--duration", "0.2", "--interval", "0.1"]
    assert psmonitor.main(args) == 69
    err = capsys.readouterr().err
    assert "StreamStalledError" in err
    assert "Traceback" not in err


def test_psmonitor_recovers_from_mild_faults(capsys):
    from repro.cli import psmonitor

    args = PROTO + ["--faults", "drop:0.002", "--fast", "--duration", "0.4", "--interval", "0.2"]
    assert psmonitor.main(args) == 0
    captured = capsys.readouterr()
    assert "total energy" in captured.out
    assert "stream health:" in captured.err  # degradation is surfaced


def test_psinfo_faults_require_protocol_path(capsys):
    code = psinfo.main(FAST + ["--faults", "drop:0.1"])
    assert code == 74  # ConfigurationError
    assert "ConfigurationError" in capsys.readouterr().err


def test_psinfo_survives_lossy_stream(capsys):
    assert psinfo.main(PROTO + ["--faults", "drop:0.001"]) == 0
    assert "total power" in capsys.readouterr().out


# --------------------------------------------------------------------- #
# Observability surface: --metrics, stats lines, metric summaries       #
# --------------------------------------------------------------------- #

import re

from repro.cli.common import run_with_diagnostics
from repro.common.errors import (
    CalibrationError,
    ConfigurationError,
    DeviceError,
    MeasurementError,
    ProtocolError,
    ReproError,
    StreamStalledError,
    TransportError,
)
from repro.observability import (
    MetricsRegistry,
    parse_prometheus,
    read_jsonl_snapshots,
)


@pytest.mark.parametrize(
    "error_cls,expected",
    [
        (ReproError, 68),
        (StreamStalledError, 69),
        (MeasurementError, 70),
        (TransportError, 71),
        (ProtocolError, 72),
        (DeviceError, 73),
        (ConfigurationError, 74),
        (CalibrationError, 75),
    ],
)
def test_metrics_written_on_every_degraded_exit_status(
    tmp_path, capsys, error_cls, expected
):
    """A degraded run must still leave its metrics file behind."""
    registry = MetricsRegistry()
    registry.counter("work_total").inc(5)
    path = tmp_path / "metrics.jsonl"

    def body() -> int:
        raise error_cls("injected for the exit-status test")

    code = run_with_diagnostics(
        "tool", body, metrics_path=str(path), registry=registry
    )
    assert code == expected
    assert error_cls.__name__ in capsys.readouterr().err
    (record,) = read_jsonl_snapshots(path)
    assert record["meta"] == {"tool": "tool", "exit_status": expected}
    assert record["metrics"][0]["value"] == 5


def test_psrun_dead_stream_still_writes_metrics(tmp_path, capsys):
    path = tmp_path / "metrics.jsonl"
    code = psrun.main(
        PROTO
        + ["--faults", "dead", "--metrics", str(path), "--", sys.executable, "-c", "pass"]
    )
    assert code == 69
    (record,) = read_jsonl_snapshots(path)
    assert record["meta"]["exit_status"] == 69
    by_name = {m["name"]: m for m in record["metrics"]}
    assert by_name["stream_stalls_total"]["value"] >= 1
    assert by_name["stream_retries_total"]["value"] >= 1
    assert by_name["faults_injected_total"]["value"] >= 1


def test_psinfo_bad_config_still_writes_metrics(tmp_path, capsys):
    path = tmp_path / "metrics.jsonl"
    code = psinfo.main(FAST + ["--faults", "drop:0.1", "--metrics", str(path)])
    assert code == 74  # ConfigurationError before the bench even exists
    (record,) = read_jsonl_snapshots(path)
    assert record["meta"] == {"tool": "psinfo", "exit_status": 74}


def test_pstest_metrics_prometheus_format(tmp_path, capsys):
    path = tmp_path / "metrics.prom"
    assert pstest.main(FAST + ["--intervals", "1", "--metrics", str(path)]) == 0
    snapshot = parse_prometheus(path.read_text())
    by_name = {m["name"]: m for m in snapshot["metrics"]}
    assert by_name["stream_samples_decoded_total"]["value"] > 0
    assert by_name["decode_last_block_samples"]["type"] == "gauge"


def test_psrun_metrics_jsonl_records_spans(tmp_path, capsys):
    path = tmp_path / "metrics.jsonl"
    code = psrun.main(
        FAST
        + ["--time-scale", "5", "--metrics", str(path), "--", sys.executable, "-c", "pass"]
    )
    assert code == 0
    (record,) = read_jsonl_snapshots(path)
    assert record["meta"] == {"tool": "psrun", "exit_status": 0}
    assert any(s["name"] == "command" for s in record.get("spans", []))


def test_psmonitor_emits_stats_lines(capsys):
    from repro.cli import psmonitor

    args = FAST + ["--duration", "1", "--interval", "0.5", "--fast"]
    assert psmonitor.main(args) == 0
    err = capsys.readouterr().err
    stats = [line for line in err.splitlines() if line.startswith("stats:")]
    assert len(stats) == 2  # one per reporting interval
    pattern = (
        r"stats: samples=\d+ dropped=\d+ retries=\d+ gaps=\d+ sps=[\d.e+-]+"
    )
    assert all(re.fullmatch(pattern, line) for line in stats)
    # samples counts are cumulative across intervals
    counts = [int(re.search(r"samples=(\d+)", line).group(1)) for line in stats]
    assert counts[0] > 0 and counts[1] >= counts[0]


def test_psmonitor_writes_metrics_file(tmp_path, capsys):
    from repro.cli import psmonitor

    path = tmp_path / "metrics.jsonl"
    args = FAST + ["--duration", "0.2", "--interval", "0.1", "--fast",
                   "--metrics", str(path)]
    assert psmonitor.main(args) == 0
    (record,) = read_jsonl_snapshots(path)
    by_name = {m["name"]: m for m in record["metrics"]}
    assert by_name["stream_samples_decoded_total"]["value"] > 0


def test_psinfo_metrics_summary_flag(capsys):
    assert psinfo.main(FAST + ["--metrics"]) == 0
    out = capsys.readouterr().out
    assert "metrics summary:" in out
    assert "stream_samples_decoded_total" in out


def test_psinfo_metrics_summary_with_path(tmp_path, capsys):
    path = tmp_path / "metrics.jsonl"
    assert psinfo.main(FAST + ["--metrics", str(path)]) == 0
    assert "metrics summary:" in capsys.readouterr().out
    (record,) = read_jsonl_snapshots(path)
    assert record["meta"] == {"tool": "psinfo", "exit_status": 0}


def test_psplot_metrics_records_spans(tmp_path, capsys):
    from repro.cli import psplot

    dump = tmp_path / "plot.dump"
    assert pstest.main(FAST + ["--intervals", "1", "--dump", str(dump)]) == 0
    path = tmp_path / "metrics.jsonl"
    assert psplot.main([str(dump), "--metrics", str(path)]) == 0
    (record,) = read_jsonl_snapshots(path)
    names = {s["name"] for s in record["spans"]}
    assert {"read_dump", "render"} <= names
    by_name = {m["name"]: m for m in record["metrics"]}
    assert by_name["plot_samples"]["value"] > 0


def test_psconfig_writes_metrics_file(tmp_path, capsys):
    path = tmp_path / "metrics.prom"
    assert psconfig.main(FAST + ["--sensor", "0", "--metrics", str(path)]) == 0
    assert "# TYPE" in path.read_text()


def test_exit_status_mapping_is_distinct():
    from repro.cli.common import exit_status
    from repro.common.errors import (
        ConfigurationError,
        MeasurementError,
        ReproError,
        StreamStalledError,
        TransportError,
    )

    codes = [
        exit_status(StreamStalledError("x")),
        exit_status(MeasurementError("x")),
        exit_status(TransportError("x")),
        exit_status(ConfigurationError("x")),
        exit_status(ReproError("x")),
    ]
    assert codes == [69, 70, 71, 74, 68]
    assert len(set(codes)) == len(codes)
