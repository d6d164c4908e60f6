"""CI runs the Makefile's gates; it does not re-type them.

Every smoke gate is defined once, as a Makefile target, and the CI
workflow calls it with ``make``. These tests read
``.github/workflows/ci.yml`` and the ``Makefile`` as plain text (pyyaml
is not a dependency) and fail when a job outside ``lint``, ``test`` and
``reach`` runs anything but ``make`` or ``pip install``, or when CI
calls a target that ``make ci`` does not reach -- so ``make ci`` stays
what CI runs, and ``tools/reach.py`` counts it. The lint job keeps its
own steps, and every one it gates on is run by ``make lint`` too.
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



def test_every_target_under_make_ci_has_a_rule():
    """A target deleted from the Makefile leaves no dangling name in
    `make ci`'s prerequisites (make would stop there with "No rule")."""
    rules = make_prerequisites(MAKEFILE.read_text())
    dangling = sorted(t for t in reached_from(rules, "ci") if t not in rules)
    assert not dangling, f"`make ci` needs targets with no rule: {dangling}"


def lint_job_gates(text: str) -> List[str]:
    """The commands of ci.yml's lint job that gate: every ``run:``
    line of a step without ``continue-on-error: true``, less the
    installs and the reported-only tables."""
    lines = text.splitlines()
    start = lines.index("  lint:")
    end = next((i for i in range(start + 1, len(lines))
                if _JOB.match(lines[i])), len(lines))
    steps: List[List[str]] = []
    for line in lines[start + 1:end]:
        if re.match(r"^      - ", line):
            steps.append([])
        if steps:
            steps[-1].append(line)
    gates = []
    for step in steps:
        if any(re.match(r"^\s*continue-on-error:\s*true\b", line)
               for line in step):
            continue
        text = "\n".join(["jobs:", "  step:"] + step)
        for cmd in ci_run_commands(text)["step"]:
            targets = set(make_targets(cmd))
            if cmd.startswith("pip install") or (
                    targets and targets <= REPORTED_ONLY):
                continue
            gates.append(cmd)
    return gates


def make_recipe(text: str, target: str) -> List[str]:
    """The logical shell lines of ``target``'s recipe, with ``@``
    prefixes dropped and ``$(PYTHON)`` spelled ``python``."""
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines)
             if re.match(rf"^{re.escape(target)}\s*:(?!=)", line)) + 1
    recipe = []
    while i < len(lines) and lines[i].startswith("\t"):
        recipe.append(lines[i])
        i += 1
    return [line.lstrip("@").replace("$(PYTHON)", "python")
            for line in _logical(recipe)]


def test_make_lint_runs_every_gate_of_the_lint_job():
    """A gate CI's lint job holds a change to, ``make lint`` must hold
    it to as well: as a recipe line of its own, or under nothing but a
    check that its own tool is installed (``if command -v ruff``).
    Advisory steps (``continue-on-error``) are left as they are."""
    recipe = make_recipe(MAKEFILE.read_text(), "lint")
    gates = lint_job_gates(CI.read_text())
    assert any(g.startswith("ruff check") for g in gates), gates
    assert any("tools/lint.py" in g for g in gates), gates

    guarded = re.compile(r"^if command -v (\S+) [^;]*; then (.*?); (?:else|fi)")

    def runs(cmd: str) -> bool:
        for line in recipe:
            if line == cmd:
                return True
            guard = guarded.match(line)
            if (guard and guard.group(1) == cmd.split()[0]
                    and cmd in guard.group(2)):
                return True
        return False

    missing = [g for g in gates if not runs(g)]
    assert not missing, (
        f"ci.yml's lint job gates on commands `make lint` does not run "
        f"unconditionally: {missing}")
