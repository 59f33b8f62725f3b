"""Work-count regression test: exact call counts of the hot hooks.

Runs two of the perf suite's cases (``mix-4c-crow``, ``libq-1c-crow``)
with counting wrappers on the scheduler's hot calls — controller ticks,
``DramChannel.earliest_issue``, and ``service_row`` / ``plan_activation``
on the ``Mechanism`` base class and on every concrete mechanism class
that overrides them — and requires the counts to equal the committed
``tests/data/expected_work.json``. The counts are exact for a fixed
digest, so an algorithmic regression in scheduling (say, re-planning
every candidate on every tick again) fails here on any host, with no
timing noise. A call nested in a call of the same name (a composite
mechanism delegating to its component) counts once.

When a change is meant to alter the counts, regenerate the file with::

    PYTHONPATH=src python -m tests.perf.test_work_counts
"""

import json
import sys
from pathlib import Path

import pytest

from repro.controller.controller import ChannelController
from repro.controller.mechanism import Mechanism
from repro.dram.device import DramChannel
from repro.mech import mechanism_names
from repro.perf.suite import CASES, _run_case_once

EXPECTED = Path(__file__).resolve().parent.parent / "data" / "expected_work.json"
CASE_NAMES = ("mix-4c-crow", "libq-1c-crow")
REGENERATE = "PYTHONPATH=src python -m tests.perf.test_work_counts"


def _subclasses(base):
    found, todo = [base], [base]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


def _targets():
    """``(class, attribute, counter name)`` of every counted method."""
    mechanism_names()   # registers (imports) every built-in mechanism
    targets = [
        (ChannelController, "tick", "controller_ticks"),
        (DramChannel, "earliest_issue", "earliest_issue"),
    ]
    for cls in _subclasses(Mechanism):
        for attr in ("service_row", "plan_activation"):
            if attr in vars(cls):
                targets.append((cls, attr, attr))
    return targets


def _counting(counts, depth, name, fn):
    def wrapper(*args, **kwargs):
        if depth[name]:
            return fn(*args, **kwargs)
        counts[name] += 1
        depth[name] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            depth[name] -= 1

    return wrapper


def count_work(case_name: str, patch) -> dict[str, int]:
    """Run one perf case under counting wrappers set with ``patch``."""
    names = ("controller_ticks", "earliest_issue", "plan_activation",
             "service_row")
    counts = dict.fromkeys(names, 0)
    depth = dict.fromkeys(names, 0)
    for cls, attr, name in _targets():
        patch(cls, attr, _counting(counts, depth, name, vars(cls)[attr]))
    case = next(c for c in CASES if c.name == case_name)
    _run_case_once(case)
    return counts


@pytest.mark.parametrize("case_name", CASE_NAMES)
def test_work_counts_match_committed(case_name, monkeypatch):
    expected = json.loads(EXPECTED.read_text())["cases"][case_name]
    counts = count_work(case_name, monkeypatch.setattr)
    assert counts == expected, (
        f"{case_name}: work counts {counts} != committed {expected}; if "
        f"the change is meant to alter them, run: {REGENERATE}"
    )


def _regenerate() -> None:
    cases = {}
    for case_name in CASE_NAMES:
        with pytest.MonkeyPatch.context() as patcher:
            cases[case_name] = count_work(case_name, patcher.setattr)
    document = {"regenerate": REGENERATE, "cases": cases}
    EXPECTED.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    json.dump(document, sys.stdout, indent=2, sort_keys=True)
    print()


if __name__ == "__main__":
    _regenerate()
