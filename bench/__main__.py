"""``python -m bench run ...`` and ``python -m bench compare ...``."""

from __future__ import annotations

import sys

USAGE = "usage: python -m bench {run,compare} [options]  (--help for each)"


def main(argv: list[str]) -> int:
    if not argv or argv[0] not in ("run", "compare"):
        print(USAGE, file=sys.stderr)
        return 2
    if argv[0] == "run":
        from bench.run import main as command
    else:
        from bench.compare import main as command
    return command(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
