"""Command-line tools mirroring the PowerSensor3 host executables.

* ``psconfig`` — read/write sensor configuration, run calibration, reboot.
* ``psinfo`` — show configuration and live readings.
* ``psrun`` — run a command and report its energy.
* ``pstest`` — power/energy at increasing intervals, sample captures.
* ``psmonitor`` — live rolling power statistics.
* ``psplot`` — ASCII chart of a dump file, a store or a live capture.
* ``psserve`` — serve devices to many remote subscribers.
* ``psfio`` — fio-style job files on the instrumented SSD, per FTL policy.
* ``pscampaign`` — declarative, resumable experiment campaigns.
* ``repro-report`` — run every experiment and write the reproduction report
  (:mod:`repro.experiments.report`).

The tools that drive devices (psconfig to psserve above) build every run
as a :class:`~repro.core.fleet.Fleet` (see :mod:`repro.cli.common`); a
single device is a fleet of one.
"""
