"""Parameter grids of the INI job files (``psfio``) and campaign plans."""

from __future__ import annotations

import itertools
from typing import Callable

from repro.common.errors import ConfigurationError


def expand_grid(
    name: str,
    options: dict[str, str],
    split: Callable[[str], list[str]],
    where: str,
) -> list[tuple[str, dict[str, str]]]:
    """``(label, {key: value})`` for every combination of the lists in ``options``.

    ``split`` turns a value into its list; an empty list is an error
    prefixed with ``where``.  Keys that take more than one value label
    the cell ``name[k=v/...]``.
    """
    axes = []
    for key, raw in options.items():
        values = split(raw)
        if not values:
            raise ConfigurationError(f"{where}: empty {key}= list")
        axes.append([(key, value) for value in values])
    multi = {axis[0][0] for axis in axes if len(axis) > 1}
    cells = []
    for combo in itertools.product(*axes):
        varying = [f"{key}={value}" for key, value in combo if key in multi]
        cells.append((f"{name}[{'/'.join(varying)}]" if varying else name, dict(combo)))
    return cells
