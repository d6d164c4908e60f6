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
from typing import Dict, Iterator, List, Optional, Set, Tuple

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


def _run_steps(text: str) -> Iterator[Tuple[str, Optional[List[str]]]]:
    """``(job, None)`` at each job of ci.yml, then ``(job, commands)``
    for each of its ``run:`` steps."""
    job = None
    lines = text.splitlines()
    i = lines.index("jobs:")
    while i < len(lines):
        line = lines[i]
        i += 1
        head = _JOB.match(line)
        if head:
            job = head.group(1)
            yield job, None
            continue
        run = _RUN.match(line)
        if not run or job is None:
            continue
        value = run.group(2)
        if value[:1] not in ("|", ">"):
            yield job, _logical([value])
            continue
        indent = len(run.group(1))
        block = []
        while i < len(lines) and (
                not lines[i].strip()
                or len(lines[i]) - len(lines[i].lstrip()) > indent):
            block.append(lines[i])
            i += 1
        yield job, _logical(block)


def ci_run_commands(text: str) -> Dict[str, List[str]]:
    """``job -> [command, ...]`` for every ``run:`` step of ci.yml."""
    jobs: Dict[str, List[str]] = {}
    for job, commands in _run_steps(text):
        jobs.setdefault(job, []).extend(commands or ())
    return jobs


def test_no_negated_gate_before_a_steps_last_line():
    """Under ``bash -e`` a failing ``! cmd`` does not stop the step
    (bash exempts negated commands from errexit), so only the step's
    last line decides its status: a ``! grep`` gate above it must end
    in ``|| exit 1`` or it gates nothing."""
    silent = [
        f"{job}: {line}" for job, commands in _run_steps(CI.read_text())
        for line in (commands or [])[:-1]
        if line.startswith("! ") and not line.endswith("|| exit 1")
    ]
    assert not silent, (
        "ci.yml has `!` gates whose failure nothing sees:\n"
        + "\n".join(silent))


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


def test_flat_table_guard_refuses_2d_subscripts_only():
    """The test job's "One flat slot table" step refuses a 2-D
    subscript of the store's per-slot tables (a ``TypeError`` on the
    flat containers, met only when its branch runs) and passes the
    flat ones; its ERE reads the same under Python's ``re``."""
    (pattern,) = [
        m.group(1) for _, commands in _run_steps(CI.read_text())
        for line in commands or ()
        for m in [re.search(r'"(\\\.\(slots\|status\|generation.*)"',
                            line)] if m
    ]
    refused = [
        "store.slots[b, s] = CONSUMED",
        "st = self.status[bucket, :z]",
        "gen = store.generation[:, :z]",
    ]
    passed = [
        "store.slots[col] = UNALLOCATED",
        "store.slots[lo:hi] = [UNALLOCATED] * (hi - lo)",
        "store.status[hb * w + hs] = ST_DEAD",
        "rows = [slots[b * w:b * w + w] for b in buckets]",
        "hb = ext.host_bucket[b, i]",
    ]
    assert [line for line in refused if not re.search(pattern, line)] == []
    assert [line for line in passed if re.search(pattern, line)] == []


def test_flat_table_guard_refuses_a_2d_host_subscript():
    """The same step refuses a 2-D subscript of the allocator's flat
    host table (column ``(b, i)`` sits at ``b * r_max + i``) and passes
    its flat reads and writes."""
    (pattern,) = [
        m.group(1) for _, commands in _run_steps(CI.read_text())
        for line in commands or ()
        for m in [re.search(r'"(\\\.\(slots\|status\|generation.*)"',
                            line)] if m
    ]
    refused = [
        "hb, hs = ext.hosts[b, i]",
        "self.hosts[bucket, i] = (hb, hs)",
    ]
    passed = [
        "hb, hs = self.hosts[bucket * self.r_max + i]",
        "self.hosts[at:at + r] = got",
        "(block,) + ext.hosts[b * ext.r_max + col - z_max]",
    ]
    assert [line for line in refused if not re.search(pattern, line)] == []
    assert [line for line in passed if re.search(pattern, line)] == []


def test_derivation_guard_refuses_byte_draws_and_parent_calls():
    """The test job's "One derivation per slot" step refuses a numpy
    ``integers`` call in the sealed store (its filler is raw words) and
    a ``parent_of`` call in the Merkle tree (its walks step to a parent
    inline), and passes what replaced them; its basic regexes read the
    same under Python's ``re`` once ``(`` is escaped, and both files
    pass them."""
    greps = {
        path: re.compile(bre.replace("(", r"\("))
        for _, commands in _run_steps(CI.read_text())
        for line in commands or ()
        for bre, path in re.findall(r"! grep -n '([^']*)' (\S+)", line)
    }
    store = greps["src/repro/oram/datastore.py"]
    tree = greps["src/repro/crypto/integrity.py"]
    cases = [
        (store, "filler = self._rng.integers(", True),
        (store, "return self._rng.integers(0, 256, self.cfg.block_bytes,", True),
        (store, "return self._rng.bit_generator.random_raw(", False),
        (store, "``integers(0, 256, 64, dtype=uint8)`` calls", False),
        (tree, "b = tree_mod.parent_of(b)", True),
        (tree, "lowest[b] = lowest[tree_mod.parent_of(b)] if b else None", True),
        (tree, "b = (b - 1) >> 1", False),
        (tree, "lowest[b] = lowest[(b - 1) >> 1] if b else None", False),
    ]
    assert [line for pattern, line, hit in cases
            if bool(pattern.search(line)) != hit] == []
    for path, pattern in greps.items():
        assert not pattern.search((ROOT / path).read_text()), path


def test_draw_guard_refuses_numpy_integers_calls_only():
    """The test job's "One pass per path" step refuses a numpy
    ``integers`` call or alias in the controllers and the position map
    (their draws go through ``Draws``) and passes the ``Draws`` calls;
    its ERE reads the same under Python's ``re``."""
    (pattern,) = [
        m.group(1) for _, commands in _run_steps(CI.read_text())
        for line in commands or ()
        for m in [re.search(r'"([^"]*integers[^"]*)"', line)] if m
    ]
    refused = [
        "leaf = int(self.rng.integers(cfg.n_leaves))",
        "draws = rng.integers(0, bounds).tolist()",
        "integers = self.rng.integers",
    ]
    passed = [
        "leaf = self.draws.one(cfg.n_leaves)",
        "draws = iter(self.draws.below(bounds))",
        "n_integers = len(bounds)",
        "rng.permutation(cfg.n_real_blocks)",
    ]
    assert [line for line in refused if not re.search(pattern, line)] == []
    assert [line for line in passed if re.search(pattern, line)] == []


def test_shard_task_guard_refuses_a_second_cell_task_only():
    """The test job's "One shard task" step refuses a fan-out, a cell
    task or a trace builder call in ``serve/`` outside ``fleet.py`` and
    passes the calls of the one fan-out and the one writer; its ERE
    reads the same under Python's ``re``."""
    (line,) = [
        line for _, commands in _run_steps(CI.read_text())
        for line in commands or () if "_serve_cell_task" in line
    ]
    pattern = re.search(r'"([^"]*_serve_cell_task[^"]*)"', line).group(1)
    assert 'grep -v "^src/repro/serve/fleet.py:"' in line
    refused = [
        "outputs = run_cells(",
        "from repro.parallel.executor import Cell, run_cells",
        "def _serve_cell_task(payload):",
        "doc = request_trace_doc(comps, telemetry.spans, meta=meta)",
        "doc = fleet_trace_doc(fragments, seed=cfg.seed)",
    ]
    passed = [
        "served = serve_fleets(fleets, cfg.workers, cfg.progress)",
        "write_fleet_trace(cfg.trace_out, shards, meta, cfg.seed)",
        "from repro.parallel.executor import CellResult",
        "result = _fleet_shard_task((cfg, shard))",
    ]
    assert [line for line in refused if not re.search(pattern, line)] == []
    assert [line for line in passed if re.search(pattern, line)] == []


def test_fan_out_guard_refuses_a_third_call_site_only():
    """The test job's "Two fan-outs" step refuses a ``run_cells`` call
    outside ``sim/runner.py`` and ``serve/fleet.py`` and passes those
    two callers, the executor's own ``def`` and a mention without a
    call; its two EREs read the same under Python's ``re``."""
    (line,) = [
        line for _, commands in _run_steps(CI.read_text())
        for line in commands or () if '"run_cells("' in line
    ]
    allowed = re.search(r'grep -vE "([^"]*)"', line).group(1)

    def refused(hit: str) -> bool:
        return "run_cells(" in hit and not re.search(allowed, hit)

    third = [
        "src/repro/perf/runner.py:246:    outputs = run_cells(",
        "src/repro/faults/campaign.py:221:    outputs = run_cells(",
        "src/repro/core/sharding/sharded.py:194:    return run_cells(_task, cells)",
        "src/repro/sim/engine.py:9:    run_cells(_sim_task, jobs)",
    ]
    passed = [
        "src/repro/sim/runner.py:85:    return run_cells(",
        "src/repro/serve/fleet.py:303:    outputs = iter(run_cells(",
        "src/repro/parallel/executor.py:267:def run_cells(",
        "src/repro/report.py:550:    \"\"\"Fold ``run_cells`` outputs into a report",
    ]
    assert [hit for hit in third if not refused(hit)] == []
    assert [hit for hit in passed if refused(hit)] == []
