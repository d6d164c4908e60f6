"""CI runs the Makefile's gates; it does not re-type them.

Every smoke gate is defined once, as a Makefile target, and the CI
workflow calls it with ``make``. These tests read
``.github/workflows/ci.yml`` and the ``Makefile`` as plain text (pyyaml
is not a dependency) and fail when a job outside ``lint``, ``test`` and
``reach`` runs anything but ``make`` or ``pip install``, or when CI
calls a target that ``make ci`` does not reach -- so ``make ci`` stays
what CI runs, and ``tools/reach.py`` counts it.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Set

ROOT = Path(__file__).resolve().parent.parent
CI = ROOT / ".github" / "workflows" / "ci.yml"
MAKEFILE = ROOT / "Makefile"

#: Jobs whose own steps are the gate (grep contracts, the tier-1 matrix,
#: the reach ratchet's step summary), not a copy of a Makefile target.
OWN_STEPS = {"lint", "test", "reach"}
#: Tables the lint job prints to the step summary; nothing gates on them.
REPORTED_ONLY = {"loc", "fingerprint"}

_JOB = re.compile(r"^  ([\w-]+):\s*$")
_RUN = re.compile(r"^(\s*)(?:- )?run:\s*(.*)$")
_MAKE = re.compile(r"(?:^|[;{]|&&|\|\|)\s*make((?:\s+[\w.-]+)+)")


def _logical(lines: List[str]) -> List[str]:
    """Shell lines with backslash continuations joined, blanks
    dropped."""
    out: List[str] = []
    pending = ""
    for line in lines:
        line = pending + line.strip()
        if line.endswith("\\"):
            pending = line[:-1].rstrip() + " "
            continue
        pending = ""
        if line:
            out.append(line)
    return out


def ci_run_commands(text: str) -> Dict[str, List[str]]:
    """``job -> [command, ...]`` for every ``run:`` step of ci.yml."""
    jobs: Dict[str, List[str]] = {}
    job = None
    lines = text.splitlines()
    i = lines.index("jobs:")
    while i < len(lines):
        line = lines[i]
        i += 1
        head = _JOB.match(line)
        if head:
            job = head.group(1)
            jobs[job] = []
            continue
        run = _RUN.match(line)
        if not run or job is None:
            continue
        value = run.group(2)
        if value[:1] not in ("|", ">"):
            jobs[job].extend(_logical([value]))
            continue
        indent = len(run.group(1))
        block = []
        while i < len(lines) and (
                not lines[i].strip()
                or len(lines[i]) - len(lines[i].lstrip()) > indent):
            block.append(lines[i])
            i += 1
        jobs[job].extend(_logical(block))
    return jobs


def make_targets(command: str) -> List[str]:
    """The targets of every ``make`` call that starts a shell command."""
    return [t for m in _MAKE.finditer(command) for t in m.group(1).split()]


def make_prerequisites(text: str) -> Dict[str, Set[str]]:
    """``target -> prerequisites`` for the Makefile's plain-named rules
    (``$(...)`` expressions are skipped)."""
    rules: Dict[str, Set[str]] = {}
    logical = []
    pending = ""
    for line in text.splitlines():
        if line.startswith("\t") and not pending:
            continue
        line = pending + line
        if line.endswith("\\"):
            pending = line[:-1] + " "
            continue
        pending = ""
        logical.append(line)
    for line in logical:
        m = re.match(r"^([\w.-]+(?:\s+[\w.-]+)*)\s*:(?!=)(.*)$", line)
        if not m:
            continue
        prereqs = {w for w in m.group(2).split()
                   if not set(w) & set("$()")}
        for target in m.group(1).split():
            rules.setdefault(target, set()).update(prereqs)
    return rules


def reached_from(rules: Dict[str, Set[str]], root: str) -> Set[str]:
    seen: Set[str] = set()
    todo = [root]
    while todo:
        target = todo.pop()
        for dep in rules.get(target, ()):
            if dep not in seen:
                seen.add(dep)
                todo.append(dep)
    return seen


def test_jobs_call_make_instead_of_retyping_it():
    jobs = ci_run_commands(CI.read_text())
    assert OWN_STEPS <= set(jobs), sorted(jobs)
    retyped = [
        f"{job}: {cmd}" for job, cmds in sorted(jobs.items())
        if job not in OWN_STEPS for cmd in cmds
        if not re.match(r"^(make|pip install)\b", cmd)
    ]
    assert not retyped, (
        "ci.yml runs commands a Makefile target should own:\n"
        + "\n".join(retyped))
    assert "make smoke" in jobs.get("smoke", [])


def test_every_target_ci_calls_is_under_make_ci():
    jobs = ci_run_commands(CI.read_text())
    called = {t for cmds in jobs.values() for cmd in cmds
              for t in make_targets(cmd)}
    under_ci = reached_from(make_prerequisites(MAKEFILE.read_text()), "ci")
    missing = sorted(called - under_ci - REPORTED_ONLY)
    assert not missing, (
        f"CI calls make targets `make ci` does not reach: {missing}")
    assert {"smoke", "readme-smoke", "e2e-quick"} <= called, sorted(called)

