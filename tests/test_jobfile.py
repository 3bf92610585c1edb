"""Job-file parser, steady-state detection, runner and psfio CLI tests."""

import json

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.common.units import MIB
from repro.dut.ssd import Ssd, SsdSpec
from repro.observability import MetricsRegistry
from repro.storage.engine import IoEngine
from repro.storage.fio import FioJob, SteadyState, parse_size
from repro.storage.jobfile import JobRunner, parse_jobfile, run_jobfile

SMALL = SsdSpec(logical_bytes=64 * MIB)


# ---------------------------------------------------------------------- #
# parse_size: the tightened regex (satellite fix)                        #
# ---------------------------------------------------------------------- #


class TestParseSize:
    @pytest.mark.parametrize(
        ("text", "expected"),
        [
            ("4", 4),
            ("4k", 4096),
            ("4K", 4096),
            ("4kb", 4096),
            ("4kib", 4096),
            ("4KiB", 4096),
            ("1m", 1 << 20),
            ("1g", 1 << 30),
            ("512b", 512),
            ("512", 512),
            ("0.5k", 512),
        ],
    )
    def test_accepts(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize(
        "text",
        ["4ib", "4i", "4kk", "k4", "", "4 k", "4q", "ib", "4bib", "-4k"],
    )
    def test_rejects(self, text):
        """A dangling 'i' (or any malformed size) must not parse.

        "4ib" used to parse as 4 bytes, silently shrinking a typo'd
        block size to a single-page workload.
        """
        with pytest.raises(ConfigurationError):
            parse_size(text)


# ---------------------------------------------------------------------- #
# Parsing                                                                #
# ---------------------------------------------------------------------- #

JOBFILE = """
[global]
bs=4k
iodepth=4
runtime=2

[prep]
rw=write
runtime=0
pre_format=1
precondition=0.5

[writes]
stonewall
rw=randwrite
ss=iops_slope:0.3%
ss_dur=3
runtime=8

[sweep]
rw=randread
bs=16k,64k
iodepth=1,8
runtime=1
"""


class TestParseJobfile:
    def test_global_defaults_and_grid_expansion(self):
        jobs = parse_jobfile(JOBFILE)
        names = [j.name for j in jobs]
        assert names == [
            "prep",
            "writes",
            "sweep[bs=16k/iodepth=1]",
            "sweep[bs=16k/iodepth=8]",
            "sweep[bs=64k/iodepth=1]",
            "sweep[bs=64k/iodepth=8]",
        ]
        prep, writes = jobs[0], jobs[1]
        assert prep.pre_format and prep.precondition_passes == 0.5
        assert prep.runtime_s == 0
        assert writes.stonewall
        assert writes.bs == "4k"  # from [global]
        assert writes.steady_state is not None
        assert writes.steady_state.criterion == "iops_slope:0.3%"
        assert writes.steady_state.window_s == 3
        assert jobs[3].block_bytes == 16384
        assert jobs[3].iodepth == 8

    def test_single_valued_grid_keys_stay_out_of_names(self):
        jobs = parse_jobfile("[a]\nrw=randread\nbs=4k\nruntime=1\n")
        assert [j.name for j in jobs] == ["a"]

    def test_ioengine_and_direct_are_accepted_and_have_no_effect(self):
        plain = "[a]\nrw=randread\nbs=4k\nruntime=1\n"
        (with_keys,) = parse_jobfile(plain + "ioengine=io_uring\ndirect=1\n")
        assert with_keys == parse_jobfile(plain)[0]

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            parse_jobfile("[a]\nrw=read\niodpeth=32\n")

    def test_missing_rw_rejected(self):
        with pytest.raises(ConfigurationError, match="missing rw"):
            parse_jobfile("[a]\nbs=4k\n")

    def test_no_jobs_rejected(self):
        with pytest.raises(ConfigurationError, match="no job sections"):
            parse_jobfile("[global]\nbs=4k\n")

    def test_zero_runtime_needs_precondition(self):
        with pytest.raises(ConfigurationError, match="runtime=0"):
            parse_jobfile("[a]\nrw=write\nruntime=0\n")

    @pytest.mark.parametrize(
        "line",
        [
            "iodepth=four",
            "iodepth=1,four",
            "rwmixread=fifty",
            "runtime=ten",
            "runtime=inf",
            "precondition=half",
            "ss_dur=two",
            "ss_ramp=one",
        ],
    )
    def test_malformed_number_names_job_and_key(self, line):
        key = line.partition("=")[0]
        text = f"[slow]\nrw=randrw\nss=iops:5%\n{line}\n"
        with pytest.raises(ConfigurationError, match=rf"job \[slow\]: {key}="):
            parse_jobfile(text)

    def test_malformed_ini_wrapped(self):
        with pytest.raises(ConfigurationError, match="cannot parse"):
            parse_jobfile("rw=write before any section\n")


class TestSteadyStateParse:
    def test_slope_and_dev_modes(self):
        slope = SteadyState.parse("iops_slope:0.3%")
        assert (slope.metric, slope.mode) == ("iops", "slope")
        assert slope.threshold == pytest.approx(0.003)
        dev = SteadyState.parse("bw:5%", window_s=6, ramp_s=2)
        assert (dev.metric, dev.mode) == ("bw", "dev")
        assert dev.window_s == 6 and dev.ramp_s == 2

    @pytest.mark.parametrize(
        "text",
        ["iops", "iops_slope", "watts:1%", "iops_max:1%", "iops:1", "bw:-2%", "iops:abc%",
         "iops:inf%"],
    )
    def test_bad_specs_rejected(self, text):
        with pytest.raises(ConfigurationError):
            SteadyState.parse(text)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(metric="watts", mode="dev", threshold=0.05),
            dict(metric="iops", mode="max", threshold=0.05),
            dict(metric="iops", mode="dev", threshold=0.0),
            dict(metric="iops", mode="dev", threshold=float("inf")),
            dict(metric="iops", mode="dev", threshold=0.05, window_s=0),
            dict(metric="iops", mode="dev", threshold=0.05, window_s=0.4),
            dict(metric="iops", mode="dev", threshold=0.05, window_s=float("nan")),
            dict(metric="iops", mode="slope", threshold=0.05, window_s=1),
            dict(metric="iops", mode="dev", threshold=0.05, ramp_s=-1),
        ],
    )
    def test_code_built_criterion_checked_as_parsed(self, kwargs):
        with pytest.raises(ConfigurationError, match="steady state"):
            SteadyState(**kwargs)

    def test_shortest_windows_accepted(self):
        assert SteadyState("bw", "dev", 0.05, window_s=1).window == 1
        assert SteadyState("iops", "slope", 0.05, window_s=1.6).window == 2

    def test_slope_check(self):
        ss = SteadyState.parse("iops_slope:1%")
        flat = np.full(5, 1000.0)
        attained, value = ss.check(flat)
        assert attained and value == pytest.approx(0.0)
        ramping = np.array([100.0, 200.0, 300.0, 400.0, 500.0])
        attained, value = ss.check(ramping)
        assert not attained and value > 0.3

    def test_dev_check(self):
        ss = SteadyState.parse("iops:5%")
        steady = np.array([100.0, 102.0, 98.0, 101.0])
        assert ss.check(steady)[0]
        spiky = np.array([100.0, 100.0, 100.0, 160.0])
        assert not ss.check(spiky)[0]

    def test_zero_window_not_attained(self):
        ss = SteadyState.parse("iops:5%")
        assert ss.check(np.zeros(4)) == (False, float("inf"))


# ---------------------------------------------------------------------- #
# Execution                                                              #
# ---------------------------------------------------------------------- #


class TestJobRunner:
    def test_report_end_to_end(self, tmp_path):
        path = tmp_path / "jobs.fio"
        path.write_text(
            "[global]\nbs=4k\nruntime=1\n"
            "[prep]\nrw=write\nruntime=0\npre_format=1\nprecondition=0.25\n"
            "[w]\nstonewall\nrw=randwrite\nruntime=2\n"
            "[r]\nstonewall\nrw=randread\nbs=64k\n"
        )
        registry = MetricsRegistry()
        report = run_jobfile(
            path, ftl="page,group", ssd_spec=SMALL, registry=registry
        )
        assert sorted(report["policies"]) == ["group", "page"]
        for policy, outcomes in report["policies"].items():
            assert [o["name"] for o in outcomes] == ["prep", "w", "r"]
            prep, w, r = outcomes
            assert prep["runtime_s"] == 0 and prep["total_ios"] == 0
            assert w["policy"] == policy
            assert w["bandwidth_mean_bps"] > 0
            assert w["power_mean_w"] > 1.0
            assert w["joules_per_io"] > 0
            assert w["energy_j"] == pytest.approx(
                w["power_mean_w"] * w["runtime_s"]
            )
            assert w["write_amplification"] >= 1.0
            assert r["latency_percentiles_us"]["50"] > 0
            assert (
                r["latency_percentiles_us"]["99"]
                >= r["latency_percentiles_us"]["50"]
            )
            assert r["lookup_ops"] > 0
        # group merges partial pages: more internal work per host IO.
        assert (
            report["policies"]["group"][1]["write_amplification"]
            >= report["policies"]["page"][1]["write_amplification"] * 0.5
        )
        assert json.dumps(report)  # report must be JSON-serialisable
        jobs = registry.counter("jobfile_jobs_total", policy="page")
        assert jobs.value == 3

    def test_steady_state_terminates_early(self, tmp_path):
        path = tmp_path / "jobs.fio"
        path.write_text(
            "[w]\nrw=randwrite\nbs=4k\nruntime=12\nss=iops:50%\nss_dur=2\n"
        )
        report = run_jobfile(path, ftl="page", ssd_spec=SMALL)
        (outcome,) = report["policies"]["page"]
        ss = outcome["steady_state"]
        assert ss["criterion"] == "iops:50%"
        assert ss["attained"]
        assert ss["stopped_at_s"] < 12
        assert outcome["runtime_s"] < 12

    def test_unknown_policy_rejected(self, tmp_path):
        path = tmp_path / "jobs.fio"
        path.write_text("[w]\nrw=randwrite\nruntime=1\n")
        with pytest.raises(ConfigurationError, match="unknown FTL policy"):
            run_jobfile(path, ftl="page,dft", ssd_spec=SMALL)

    def test_runner_rejects_empty_speclist(self):
        with pytest.raises(ConfigurationError, match="no jobs"):
            JobRunner([])


@pytest.mark.parametrize(
    "job",
    [
        FioJob(rw="read", bs="16k", runtime_s=1.0),
        FioJob(rw="write", bs="16k", runtime_s=1.0),
        FioJob(rw="randread", bs="16k", runtime_s=1.0),
        FioJob(rw="randwrite", bs="16k", runtime_s=1.0),
        FioJob(rw="rw", bs="16k", runtime_s=1.0),
        FioJob(rw="randrw", bs="16k", rwmixread=0, runtime_s=1.0),
        FioJob(rw="randrw", bs="16k", rwmixread=50, runtime_s=1.0),
        FioJob(rw="randrw", bs="16k", rwmixread=100, runtime_s=1.0),
    ],
    ids=lambda job: f"{job.rw}{job.rwmixread if job.is_mixed else ''}",
)
def test_engine_run_matches_the_job_runner(job):
    """psfio's runner reports exactly what ``IoEngine.run`` gives Fig. 12.

    The same job on twin drives gives the same intervals, mapping
    lookups and read-latency percentiles either way.
    """
    spec = SsdSpec(logical_bytes=16 * MIB)
    ssd = Ssd(spec, seed=3)
    lookups_before = ssd.counters.lookup_ops
    result = IoEngine(ssd, seed=3).run(job)
    (outcome,) = JobRunner([job], ssd_spec=spec, seed=3, keep_intervals=True).run()
    assert outcome.intervals == result.intervals
    assert outcome.lookup_ops == result.counters.lookup_ops
    assert result.counters.lookup_ops == ssd.counters.lookup_ops - lookups_before
    if job.read_fraction == 0:
        assert result.latencies_s.size == 0
        assert outcome.latency_percentiles_us == {}
    else:
        assert outcome.latency_percentiles_us == {
            q: v * 1e6 for q, v in result.latency_percentiles().items()
        }


class TestPsfioCli:
    def test_cli_writes_report(self, tmp_path, capsys):
        from repro.cli.psfio import main

        jobs = tmp_path / "jobs.fio"
        jobs.write_text("[w]\nrw=randwrite\nbs=4k\nruntime=1\n")
        out = tmp_path / "report.json"
        status = main(
            [str(jobs), "--ftl", "page", "--capacity-gib", "0.0625",
             "--out", str(out)]
        )
        assert status == 0
        report = json.loads(out.read_text())
        assert "page" in report["policies"]
        printed = capsys.readouterr().out
        assert "ftl=page" in printed and "J/IO=" in printed

    def test_cli_degrades_on_bad_jobfile(self, tmp_path, capsys):
        from repro.cli.psfio import main

        jobs = tmp_path / "bad.fio"
        jobs.write_text("[w]\nrw=teleport\n")
        status = main([str(jobs)])
        assert status == 74  # ConfigurationError exit status
        assert "psfio:" in capsys.readouterr().err

    def test_cli_malformed_number_exits_74(self, tmp_path, capsys):
        from repro.cli.psfio import main

        jobs = tmp_path / "bad.fio"
        jobs.write_text("[w]\nrw=randread\niodepth=four\n")
        assert main([str(jobs)]) == 74
        err = capsys.readouterr().err
        assert "ConfigurationError" in err and "iodepth='four'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "criterion", ["ss=iops:5%\nss_dur=0.4", "ss=iops_slope:1%\nss_dur=1", "ss"]
    )
    def test_cli_bad_steady_state_exits_74(self, tmp_path, capsys, criterion):
        from repro.cli.psfio import main

        jobs = tmp_path / "bad.fio"
        jobs.write_text(f"[w]\nrw=randwrite\nruntime=4\n{criterion}\n")
        assert main([str(jobs), "--capacity-gib", "0.0625"]) == 74
        err = capsys.readouterr().err
        assert "ConfigurationError" in err and "job [w]" in err
        assert "Traceback" not in err
