#!/usr/bin/env python
"""Reach audit: which ``src/repro`` functions does anything run?

``coverage`` is not a dependency, so this records function *entries*
with ``sys.setprofile`` and compares them with every function the source
defines (an AST walk of ``src/repro``).

It runs the Makefile targets ``ci`` (lint, tier-1, every smoke target,
the e2e quick run), ``bench`` (the paper benchmarks, at a small scale),
``examples``, ``fingerprint`` and ``chacha-cutover`` with
``tools/reach_site`` first on ``PYTHONPATH``,
so every interpreter they start, subprocesses and spawn workers
included, loads the recorder in its ``sitecustomize.py``. Under pytest
each entry is labelled with the test file that ran it, which is what
separates a function a workflow runs from one that only tests run::

    python tools/reach.py [--out DIR] [--list]

The report has one row per module with functions nothing entered
("unreached") or only ``tests/`` files entered ("tests-only", with those
files named). Bodies that are only a docstring, ``...``, ``pass`` or
``raise NotImplementedError`` are interface stubs and are not counted.
The last two lines are the two counts; CI prints them. A target failing
under the recorder (a noisy overhead bound, say) is reported, not fatal:
the audit is about what ran.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
SITE = ROOT / "tools" / "reach_site"

TARGETS = ("ci", "bench", "examples", "fingerprint", "chacha-cutover")

#: The paper benchmarks at a size that runs in minutes.
_SMALL_BENCH = {"REPRO_BENCH_LEVELS": "10", "REPRO_BENCH_REQUESTS": "300",
                "REPRO_BENCH_SUITE": "mcf"}


def run_targets(records: Path) -> int:
    """``make -k TARGETS`` with every interpreter recording; make's exit."""
    records.mkdir(parents=True, exist_ok=True)
    for stale in records.glob("*.json"):
        stale.unlink()
    env = dict(os.environ, **_SMALL_BENCH)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SITE)] + [p for p in [env.get("PYTHONPATH")] if p])
    env["PYTEST_PLUGINS"] = ",".join(
        [p for p in [env.get("PYTEST_PLUGINS")] if p] + ["sitecustomize"])
    env["REACH_RECORDS"] = str(records)
    env["REACH_LABEL"] = "make"
    return subprocess.run(["make", "-k", *TARGETS], cwd=ROOT,
                          stdout=subprocess.DEVNULL, env=env).returncode


# --------------------------------------------------------------- report

def _is_stub(node: ast.AST) -> bool:
    body = list(node.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(
            body[0].value, ast.Constant) and isinstance(
            body[0].value.value, str):
        body = body[1:]
    if not body:
        return True
    if len(body) != 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return stmt.value.value is Ellipsis
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def defined_functions() -> Dict[Tuple[str, int], Tuple[str, bool]]:
    """(module path, first line) -> (qualname, is_stub) for src/repro.

    The first line is the first decorator's, as in ``co_firstlineno``.
    """
    found: Dict[Tuple[str, int], Tuple[str, bool]] = {}

    def walk(nodes, prefix: str, rel: str) -> None:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno]
                            + [d.lineno for d in node.decorator_list])
                qual = prefix + node.name
                found[(rel, first)] = (qual, _is_stub(node))
                walk(node.body, qual + ".<locals>.", rel)
            elif isinstance(node, ast.ClassDef):
                walk(node.body, prefix + node.name + ".", rel)
            else:
                walk(ast.iter_child_nodes(node), prefix, rel)

    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        walk(ast.parse(path.read_text()).body, "", rel)
    return found


def load_records(records: Path) -> Dict[Tuple[str, int], Set[str]]:
    """(module path, first line) -> labels that entered it."""
    by_fn: Dict[Tuple[str, int], Set[str]] = defaultdict(set)
    for path in sorted(records.glob("*.json")):
        for label, hits in json.loads(path.read_text())["labels"].items():
            for rel, line in hits:
                by_fn[(rel, line)].add(label)
    return by_fn


def report(records: Path, list_all: bool) -> str:
    defined = defined_functions()
    by_fn = load_records(records)
    rows: Dict[str, Dict[str, list]] = defaultdict(
        lambda: {"unreached": [], "tests_only": [], "readers": set()})
    stubs = 0
    for (rel, line), (qual, stub) in sorted(defined.items()):
        labels = by_fn.get((rel, line), set())
        if stub and not labels:
            stubs += 1
        elif not labels:
            rows[rel]["unreached"].append(f"{rel}:{line} {qual}")
        elif all(lb.split("/")[0] == "tests" for lb in labels):
            rows[rel]["tests_only"].append(f"{rel}:{line} {qual}")
            rows[rel]["readers"].update(labels)
    n_unreached = sum(len(r["unreached"]) for r in rows.values())
    n_tests = sum(len(r["tests_only"]) for r in rows.values())
    lines = [
        f"reach audit: {len(defined)} functions in src/repro "
        f"({stubs} unreached stub bodies not counted)",
        f"{'module':34s} {'unreached':>9s} {'tests-only':>10s}  "
        "tests reaching the tests-only ones",
    ]
    for rel, r in sorted(rows.items()):
        readers = " ".join(sorted(lb.partition("/")[2] or lb
                                  for lb in r["readers"]))
        lines.append(f"{rel:34s} {len(r['unreached']):9d} "
                     f"{len(r['tests_only']):10d}  {readers}")
    if list_all:
        for kind in ("unreached", "tests_only"):
            lines.append(f"\n{kind.replace('_', '-')} functions:")
            lines += [f"  {fn}" for r in rows.values() for fn in r[kind]]
    lines.append(f"unreached functions: {n_unreached}")
    lines.append(f"tests-only functions: {n_tests}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="generated/reach",
                        help="records directory (default: generated/reach)")
    parser.add_argument("--list", action="store_true",
                        help="also list every unreached / tests-only function")
    args = parser.parse_args(argv)
    out = Path(args.out).resolve()
    code = run_targets(out)
    print(report(out, args.list))
    if code:
        print(f"warning: make -k {' '.join(TARGETS)} exited {code}",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
