"""Correctness oracle: recorded reference outputs plus fallback checks.

``reference.json`` maps each workload to ``{item key: outputs}``, where
the key is the canonical JSON of the item's generated inputs.  An item
whose key is recorded must match every recorded output within
:data:`REL_TOL`; any other item falls back to the workload's
reference-free checks (finiteness, positivity, conservation).
"""

from __future__ import annotations

import json
import math
import os

#: Relative tolerance of the reference comparison (the fast-path oracle
#: tolerance of the program's roadmap).
REL_TOL = 5.0e-3

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def item_key(item: dict) -> str:
    return json.dumps(item, sort_keys=True, separators=(",", ":"))


def load_reference() -> dict:
    if not os.path.exists(REFERENCE_PATH):
        return {}
    with open(REFERENCE_PATH) as f:
        return json.load(f)["workloads"]


def save_reference(refs: dict) -> None:
    doc = {"rel_tol": REL_TOL, "workloads": refs}
    tmp = REFERENCE_PATH + ".tmp"
    with open(tmp, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(tmp, REFERENCE_PATH)


def compare(expected: dict, actual: dict, rel_tol: float = REL_TOL
            ) -> list[str]:
    """Problems found comparing ``actual`` against ``expected``."""
    problems = []
    for name, want in expected.items():
        got = actual.get(name)
        if got is None or not math.isfinite(got):
            problems.append(f"{name}: missing or non-finite ({got!r})")
        elif abs(got - want) > rel_tol * max(abs(want), 1e-300):
            problems.append(f"{name}: {got!r} vs reference {want!r} "
                            f"(rel {abs(got - want) / abs(want):.2e})")
    return problems


class Oracle:
    """Checks item outputs for one workload."""

    def __init__(self, workload, references: dict):
        self.workload = workload
        self.refs = references.get(workload.name, {})

    def check(self, item: dict, output: dict) -> tuple[str, list[str]]:
        """``(mode, problems)``; mode is ``"reference"`` or
        ``"fallback"``."""
        ref = self.refs.get(item_key(item))
        if ref is not None:
            return "reference", compare(ref, output)
        return "fallback", self.workload.plausible(item, output)
