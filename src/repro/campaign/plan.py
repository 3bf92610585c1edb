"""Declarative campaign plans: INI grids, filters, ablation groups.

A plan file reuses the :mod:`repro.storage.jobfile` grammar conventions
(configparser INI dialect, ``=`` delimiter, lowercase keys, unknown keys
rejected)::

    [campaign]
    name = demo
    seed = 42
    scale = bench

    [grid:streaming-matrix]
    experiment = streaming
    fleet = 1,2,4
    faults = none; drop:0.01; flip:0.002
    backpressure = block,drop-oldest,downsample
    exclude = fleet=4/backpressure=block

    [ablation:stream-defences]
    experiment = streaming
    metric = delivered ratio
    goal = max
    faults = drop:0.02
    knockout.fault-injection = faults=none
    knockout.ring-policy = backpressure=block

Semantics:

* ``[grid:NAME]`` — every non-reserved key is a parameter of the named
  experiment; comma-separated values expand into the cartesian product
  (use ``;`` as the list separator when values themselves contain
  commas, e.g. compound fault specs).  Cells are labelled like jobfile
  jobs: ``NAME[fleet=2/faults=drop:0.01]`` over the multi-valued axes.
* ``include = `` / ``exclude = `` — ``;``-separated conjunction
  patterns ``key=value/key2=value2`` filtering the expanded product
  (exclude wins; include, when present, keeps only matching cells).
* ``[ablation:NAME]`` — aumai-style knockout bookkeeping: the section's
  parameters define the **baseline** cell, and every ``knockout.C = ``
  key adds one cell with the listed ``key=value`` overrides applied
  (``;``-separated).  ``metric`` names the result-row column scored by
  the report; ``goal`` is ``max`` (default) or ``min``.
* Run IDs are content hashes of (experiment, scale, resolved params) —
  the same plan always produces the same IDs, and any parameter change
  produces new ones.  Unless a section pins ``seed``, each cell gets a
  seed derived from its run ID, so repeated runs are reproducible and
  distinct cells are decorrelated.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.campaign import registry
from repro.campaign.registry import Experiment
from repro.common.errors import ConfigurationError
from repro.common.grid import expand_grid

#: Keys with meaning to the planner, not the experiment schema.
RESERVED_KEYS = ("experiment", "include", "exclude")

#: Ablation sections add these on top of the reserved keys.
ABLATION_KEYS = ("metric", "goal")

GOALS = ("max", "min")


def split_values(raw: str) -> list[str]:
    """Split a list value: on ``;`` when present, else on ``,``."""
    separator = ";" if ";" in raw else ","
    return [token.strip() for token in raw.split(separator) if token.strip()]


def compute_run_id(experiment: str, params: dict[str, Any], scale: str) -> str:
    """Stable content-hashed run ID for one cell."""
    canonical = json.dumps(
        {"experiment": experiment, "scale": scale, "params": params},
        sort_keys=True,
        default=list,  # tuples in defaults serialise as lists
    )
    digest = hashlib.sha256(canonical.encode()).hexdigest()[:12]
    return f"{experiment}-{digest}"


def derive_seed(campaign_seed: int, experiment: str, params: dict[str, Any]) -> int:
    """A per-cell seed: deterministic, decorrelated across cells."""
    canonical = json.dumps(
        {"experiment": experiment, "params": params, "campaign_seed": campaign_seed},
        sort_keys=True,
        default=list,
    )
    digest = hashlib.sha256(canonical.encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class CampaignCell:
    """One fully resolved run: experiment + params + identity."""

    group: str  # the plan section that produced it
    experiment: str
    params: dict[str, Any]
    label: str
    run_id: str
    role: str | None = None  # ablations: "baseline" or the component name

    def to_dict(self) -> dict:
        return {
            "group": self.group,
            "experiment": self.experiment,
            "params": self.params,
            "label": self.label,
            "run_id": self.run_id,
            "role": self.role,
        }


@dataclass(frozen=True)
class AblationGroup:
    """One knockout group: the baseline and its component cells."""

    name: str
    experiment: str
    metric: str
    goal: str
    baseline_run_id: str
    knockouts: dict[str, str]  # component -> run_id

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "experiment": self.experiment,
            "metric": self.metric,
            "goal": self.goal,
            "baseline_run_id": self.baseline_run_id,
            "knockouts": dict(self.knockouts),
        }


@dataclass
class CampaignPlan:
    """A parsed plan: campaign header, expanded cells, ablation groups."""

    name: str
    seed: int = 0
    scale: str = "bench"
    cells: list[CampaignCell] = field(default_factory=list)
    ablations: list[AblationGroup] = field(default_factory=list)

    @property
    def full(self) -> bool:
        return self.scale == "full"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "scale": self.scale,
            "cells": [cell.to_dict() for cell in self.cells],
            "ablations": [group.to_dict() for group in self.ablations],
        }

    @classmethod
    def parse(cls, text: str) -> CampaignPlan:
        parser = configparser.ConfigParser(
            allow_no_value=True, delimiters=("=",), interpolation=None
        )
        parser.optionxform = str.lower  # type: ignore[assignment]
        try:
            parser.read_string(text)
        except configparser.Error as error:
            raise ConfigurationError(f"cannot parse plan: {error}") from error

        header = dict(parser["campaign"]) if parser.has_section("campaign") else {}
        unknown = set(header) - {"name", "seed", "scale"}
        if unknown:
            raise ConfigurationError(
                f"[campaign]: unknown key(s) {sorted(unknown)}"
            )
        scale = (header.get("scale") or "bench").strip().lower()
        if scale not in ("bench", "full"):
            raise ConfigurationError(f"scale must be bench or full, got {scale!r}")
        plan = cls(
            name=(header.get("name") or "campaign").strip(),
            seed=int(header.get("seed") or 0),
            scale=scale,
        )

        sections = [s for s in parser.sections() if s.lower() != "campaign"]
        if not sections:
            raise ConfigurationError("plan defines no grid or ablation sections")
        for section in sections:
            options = dict(parser[section])
            if section.lower().startswith("grid:"):
                plan._expand_grid(section, options)
            elif section.lower().startswith("ablation:"):
                plan._expand_ablation(section, options)
            else:
                raise ConfigurationError(
                    f"section [{section}] must be [grid:NAME] or [ablation:NAME]"
                )
        seen: dict[str, str] = {}
        for cell in plan.cells:
            previous = seen.setdefault(cell.run_id, cell.group)
            if previous != cell.group:
                # The same content in two sections is legal (an ablation
                # baseline may coincide with a grid cell); the runner
                # executes it once and both groups share the artifact.
                continue
        return plan

    @classmethod
    def load(cls, path: str | Path) -> CampaignPlan:
        return cls.parse(Path(path).read_text())

    # -- section expansion ---------------------------------------------- #

    def _experiment_for(self, section: str, options: dict) -> Experiment:
        name = (options.get("experiment") or "").strip()
        if not name:
            raise ConfigurationError(f"section [{section}] is missing experiment=")
        return registry.get(name)

    def _resolve_cell(
        self,
        section: str,
        experiment: Experiment,
        chosen: dict[str, Any],
        label: str,
        role: str | None = None,
    ) -> CampaignCell:
        """Defaults + overrides -> typed params, derived seed, run ID."""
        params = experiment.scaled_args(self.full)
        params.update(chosen)
        if "seed" in params and "seed" not in chosen:
            params["seed"] = derive_seed(self.seed, experiment.name, params)
        run_id = compute_run_id(experiment.name, params, self.scale)
        return CampaignCell(
            group=section,
            experiment=experiment.name,
            params=params,
            label=label,
            run_id=run_id,
            role=role,
        )

    def _expand_grid(self, section: str, options: dict) -> None:
        experiment = self._experiment_for(section, options)
        grid = {key: raw or "" for key, raw in options.items() if key not in RESERVED_KEYS}
        for key in grid:
            experiment.param(key)  # unknown keys are configuration errors

        include = split_values(options.get("include") or "")
        exclude = split_values(options.get("exclude") or "")
        short = section.split(":", 1)[1]
        n_kept = 0
        for label, raw_choice in expand_grid(short, grid, split_values, f"[{section}]"):
            if exclude and any(_matches(raw_choice, p) for p in exclude):
                continue
            if include and not any(_matches(raw_choice, p) for p in include):
                continue
            chosen = {
                key: experiment.param(key).parse(value)
                for key, value in raw_choice.items()
            }
            self.cells.append(
                self._resolve_cell(section, experiment, chosen, label)
            )
            n_kept += 1
        if n_kept == 0:
            raise ConfigurationError(
                f"[{section}]: include/exclude filters removed every cell"
            )

    def _expand_ablation(self, section: str, options: dict) -> None:
        experiment = self._experiment_for(section, options)
        short = section.split(":", 1)[1]
        metric = (options.get("metric") or "").strip()
        if not metric:
            raise ConfigurationError(f"[{section}] is missing metric=")
        goal = (options.get("goal") or "max").strip().lower()
        if goal not in GOALS:
            raise ConfigurationError(
                f"[{section}]: goal must be one of {GOALS}, got {goal!r}"
            )

        baseline_raw: dict[str, str] = {}
        knockouts_raw: dict[str, str] = {}
        for key, raw in options.items():
            if key in RESERVED_KEYS or key in ABLATION_KEYS:
                continue
            if key.startswith("knockout."):
                component = key[len("knockout."):].strip()
                if not component:
                    raise ConfigurationError(
                        f"[{section}]: knockout key needs a component name"
                    )
                knockouts_raw[component] = raw or ""
                continue
            experiment.param(key)
            values = split_values(raw or "")
            if len(values) != 1:
                raise ConfigurationError(
                    f"[{section}]: baseline key {key}= must be a single value "
                    "(grids belong in [grid:...] sections)"
                )
            baseline_raw[key] = values[0]
        if not knockouts_raw:
            raise ConfigurationError(
                f"[{section}] defines no knockout.<component>= entries"
            )

        baseline = {
            key: experiment.param(key).parse(value)
            for key, value in baseline_raw.items()
        }
        baseline_cell = self._resolve_cell(
            section, experiment, baseline, f"{short}[baseline]", role="baseline"
        )
        self.cells.append(baseline_cell)

        knockouts: dict[str, str] = {}
        for component, raw in knockouts_raw.items():
            overrides = dict(baseline)
            for assignment in split_values(raw):
                key, sep, value = assignment.partition("=")
                key = key.strip()
                if not sep or not key:
                    raise ConfigurationError(
                        f"[{section}]: knockout.{component} entries must be "
                        f"key=value, got {assignment!r}"
                    )
                overrides[key] = experiment.param(key).parse(value)
            cell = self._resolve_cell(
                section,
                experiment,
                overrides,
                f"{short}[-{component}]",
                role=component,
            )
            self.cells.append(cell)
            knockouts[component] = cell.run_id

        self.ablations.append(
            AblationGroup(
                name=short,
                experiment=experiment.name,
                metric=metric,
                goal=goal,
                baseline_run_id=baseline_cell.run_id,
                knockouts=knockouts,
            )
        )


def _matches(choice: dict[str, str], pattern: str) -> bool:
    """Does a raw axis choice match a ``key=value/key2=value2`` pattern?"""
    for clause in pattern.split("/"):
        key, sep, value = clause.partition("=")
        if not sep:
            raise ConfigurationError(
                f"filter pattern {pattern!r}: clauses must be key=value"
            )
        if choice.get(key.strip()) != value.strip():
            return False
    return True
