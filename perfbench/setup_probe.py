"""Time one benchmark set-up in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed> <workdir>``

Measures what a user pays on every CLI run before the first call into
the simulator: ``import repro`` plus building the workload's configs,
task specs and empty cache directories (the workload's ``__init__``).
The time is host-normalized like every timed slice (see ``refkernel``);
the last line of output is a JSON object with the wall and normalized
seconds, and ``run.py`` reports the median over several probes as
``setup_s``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import refkernel  # noqa: E402
import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed, workdir = argv[1], int(argv[2]), Path(argv[3])
    sys.path.insert(0, str(HERE.parent / "src"))
    refkernel.burst()  # the first burst in a fresh process runs cold
    normalizer = refkernel.Normalizer()
    normalizer.mark("setup")
    import repro  # noqa: F401

    workloads.WORKLOADS[name](seed, workdir)
    [(_, wall_s, normalized_s)] = normalizer.stop()
    print(json.dumps({"wall_s": wall_s, "normalized_s": normalized_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
