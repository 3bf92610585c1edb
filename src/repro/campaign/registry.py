"""The experiment registry: one descriptor per reproducible artifact.

Every module in :mod:`repro.experiments` registers an :class:`Experiment`
at import time: a stable name, the report section title, the runner
callable, and a typed parameter schema carrying both the bench-scale
defaults and the paper-scale (``full``) overrides.  The schema is the
only place an experiment's scale is set: the reproduce-all report, the
campaign planner and each module's ``main()`` are generated from this
table, and the tier-1 tests run every experiment at its defaults.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.common.errors import ConfigurationError
from repro.experiments.common import ExperimentResult

#: Sentinel for "no paper-scale override" (``None`` is a legal value).
_UNSET = object()

_PARSERS: dict[str, Callable[[str], Any]] = {
    "int": lambda text: int(text, 0),
    "float": float,
    "str": str,
    "bool": lambda text: text.strip().lower() not in ("0", "false", "no", ""),
}


@dataclass(frozen=True)
class Param:
    """One schema entry: name, type, bench default, paper-scale value.

    ``default`` is the bench-scale value the reproduce-all report and
    campaign cells use when a plan does not pin the axis; ``full`` is
    the paper-scale override selected by ``scale = full`` (report
    ``--full``).  ``choices`` restricts string axes to a closed set.
    """

    name: str
    kind: str = "str"
    default: Any = None
    full: Any = _UNSET
    choices: tuple[str, ...] | None = None
    help: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _PARSERS:
            raise ConfigurationError(
                f"param {self.name!r}: unknown kind {self.kind!r} "
                f"(choose from {sorted(_PARSERS)})"
            )

    def parse(self, text: str) -> Any:
        """Parse one plan-file token into this parameter's type."""
        try:
            value = _PARSERS[self.kind](text.strip())
        except ValueError as error:
            raise ConfigurationError(
                f"param {self.name!r}: cannot parse {text!r} as {self.kind}"
            ) from error
        if self.choices is not None and value not in self.choices:
            raise ConfigurationError(
                f"param {self.name!r}: {value!r} not in {sorted(self.choices)}"
            )
        return value

    def value(self, full: bool) -> Any:
        """The bench- or paper-scale value of this parameter."""
        if full and self.full is not _UNSET:
            return self.full
        return self.default


@dataclass(frozen=True)
class Experiment:
    """A registered experiment: what to run, how to scale it, what it emits.

    Attributes:
        name: stable registry key (``fig4``, ``ablation_noise``, ...);
            also the run-ID prefix.
        section: the report section title ("Fig. 4", "Table I", ...).
        runner: callable returning an :class:`ExperimentResult`; called
            with the resolved parameter dict as keyword arguments.
        params: the typed parameter schema plans may sweep.
        report_index: position in the reproduce-all report, or ``None``
            for experiments the report does not include.
        accepts_registry: the runner takes a ``registry=`` keyword and
            publishes metrics into it (the campaign runner then persists
            a per-run snapshot with real content).
        series: the result carries figure series (a ``series.npz``
            artifact alongside ``result.json``).
    """

    name: str
    section: str
    runner: Callable[..., ExperimentResult]
    params: tuple[Param, ...] = ()
    report_index: int | None = None
    accepts_registry: bool = False
    series: bool = False
    help: str = ""

    def param(self, name: str) -> Param:
        for param in self.params:
            if param.name == name:
                return param
        raise ConfigurationError(
            f"experiment {self.name!r} has no parameter {name!r} "
            f"(schema: {[p.name for p in self.params] or 'none'})"
        )

    def scaled_args(self, full: bool = False) -> dict[str, Any]:
        """The fully resolved parameter dict at bench or paper scale."""
        return {p.name: p.value(full) for p in self.params}

    @property
    def artifacts(self) -> tuple[str, ...]:
        return ("result.json", "series.npz") if self.series else ("result.json",)


_REGISTRY: dict[str, Experiment] = {}
_LOADED = False


def register(
    name: str,
    section: str,
    runner: Callable[..., ExperimentResult],
    params: tuple[Param, ...] = (),
    report_index: int | None = None,
    accepts_registry: bool = False,
    series: bool = False,
    help: str = "",
) -> Experiment:
    """Register an experiment descriptor (module-import time).

    Re-registering a name is an error — two modules claiming the same
    experiment would silently shadow each other's schema.
    """
    if name in _REGISTRY:
        raise ConfigurationError(f"experiment {name!r} is already registered")
    experiment = Experiment(
        name=name,
        section=section,
        runner=runner,
        params=tuple(params),
        report_index=report_index,
        accepts_registry=accepts_registry,
        series=series,
        help=help,
    )
    _REGISTRY[name] = experiment
    return experiment


def load_all() -> None:
    """Import every experiment module so its registrations run."""
    global _LOADED
    if _LOADED:
        return
    _LOADED = True
    # Imported for their registration side effects only.
    from repro.experiments import (  # noqa: F401
        ablations,
        fig4,
        fig5,
        fig7,
        fig8,
        fig10,
        fig12,
        stability,
        streaming,
        table1,
        table2,
        workloads,
    )


def get(name: str) -> Experiment:
    load_all()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {name!r} (registered: {', '.join(names())})"
        ) from None


def names() -> list[str]:
    load_all()
    return sorted(_REGISTRY)


def experiments() -> list[Experiment]:
    load_all()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def print_paper_scale(*names: str) -> None:
    """Run the named experiments at paper scale and print their tables.

    Every experiment module's ``main()`` is this call on the experiments
    it registers, so ``python -m repro.experiments.<module>`` runs what
    the report's ``--full`` runs.
    """
    for index, name in enumerate(names):
        if index:
            print()
        # Not get(): under ``python -m`` the calling module is __main__,
        # and load_all() would import it again under its package name and
        # register its experiments a second time.
        experiment = _REGISTRY[name]
        experiment.runner(**experiment.scaled_args(True)).print()


def report_experiments() -> list[Experiment]:
    """The reproduce-all report's experiments, in pinned order."""
    load_all()
    ordered = [e for e in _REGISTRY.values() if e.report_index is not None]
    ordered.sort(key=lambda e: e.report_index)  # type: ignore[arg-type, return-value]
    return ordered
