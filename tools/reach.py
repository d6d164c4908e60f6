#!/usr/bin/env python
"""Reach audit: which ``src/repro`` functions does anything run?

``coverage`` is not a dependency, so this records function *entries*
with ``sys.setprofile`` and compares them with every function the source
defines (an AST walk of ``src/repro``).

It runs the Makefile targets ``ci`` (what CI runs: lint, tier-1, the
smoke gates, the README steps, the e2e quick run, figure fidelity),
``bench`` (the paper benchmarks, at the default scale ``fidelity``
compares), ``examples``
and ``fingerprint`` with ``tools/reach_site`` first on ``PYTHONPATH``,
so every interpreter they start, subprocesses and spawn workers
included, loads the recorder in its ``sitecustomize.py`` (a forked pool
worker inherits it). Under pytest each entry is labelled with the test
file that ran it, which is what separates a function a workflow runs
from one that only tests run::

    python tools/reach.py [--out DIR] [--list]

The report has one row per module with functions nothing entered
("unreached") or only ``tests/`` files entered ("tests-only", with those
files named). Bodies that are only a docstring, ``...``, ``pass`` or
``raise NotImplementedError`` are interface stubs and are not counted.

The recorder also keeps the scalar values each parameter received, so
the report counts the "single-valued settings": defaulted parameters and
dataclass fields for which every non-``tests/`` label passed exactly one
value. Run-state records (``RUN_STATE``), deployment names (``seed``,
``workers``, ``progress``, ``smoke``, ``*_out``, ``*_path``) and the
harness fields whose ``smoke_config()`` and ``full_config()`` differ
(the nightly runs the full one) are not settings.

The last three lines are the three counts; CI prints them. A target failing
under the recorder (a noisy overhead bound, say) is reported, not fatal:
the audit is about what ran. make's output goes to ``make.log`` in the
records directory; when make fails, the log's path and its ``FAILED`` /
``ERROR`` / ``*** ... Error`` lines are printed to stderr. It exits 1
when any count is above the one committed in
``tools/reach_counts.json``, so the counts can only fall; a change that
lowers one lowers the file too.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
SITE = ROOT / "tools" / "reach_site"
#: The committed counts; a run whose count rises above one fails.
COUNTS = ROOT / "tools" / "reach_counts.json"

TARGETS = ("ci", "bench", "examples", "fingerprint")

#: Records of what a run did or found, not settings of what it does.
RUN_STATE = ("DramStats", "OpCounters", "RobustnessCounters", "ReplayResult",
             "CellResult", "SimResult", "ShardedSimOutcome", "Finding")
#: Names that say where a run goes, not what it computes.
DEPLOYMENT = ("seed", "workers", "progress", "smoke")
DEPLOYMENT_SUFFIXES = ("_out", "_path")

#: The lines of make's log a failure report quotes: pytest's failed and
#: errored tests, and make's own error lines.
_FAILURE_LINE = re.compile(r"^(FAILED|ERROR) |\*\*\* .*Error")


def run_targets(records: Path, targets: Sequence[str] = TARGETS,
                directory: Path = ROOT) -> int:
    """``make -k targets`` in ``directory`` with every interpreter
    recording, its output in ``records/make.log``; make's exit."""
    records.mkdir(parents=True, exist_ok=True)
    for stale in records.glob("*.json"):
        stale.unlink()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SITE)] + [p for p in [env.get("PYTHONPATH")] if p])
    env["PYTEST_PLUGINS"] = ",".join(
        [p for p in [env.get("PYTEST_PLUGINS")] if p] + ["sitecustomize"])
    env["REACH_RECORDS"] = str(records)
    env["REACH_LABEL"] = "make"
    log = records / "make.log"
    with open(log, "w") as out:
        code = subprocess.run(["make", "-k", *targets], cwd=directory,
                              stdout=out, stderr=subprocess.STDOUT,
                              env=env).returncode
    if code:
        print(f"reach: make -k {' '.join(targets)} exited {code}; "
              f"its output is in {log}", file=sys.stderr)
        with open(log, errors="replace") as text:
            for line in text:
                if _FAILURE_LINE.search(line):
                    print(f"  {line.rstrip()}", file=sys.stderr)
    return code


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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(
            target, "id", "")
        if name == "dataclass":
            return True
    return False


def _init_field(stmt: ast.stmt) -> Optional[str]:
    """The name an annotated class-body line adds to ``__init__``, if any."""
    if not (isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)):
        return None
    if "ClassVar" in ast.unparse(stmt.annotation):
        return None
    value = stmt.value
    if isinstance(value, ast.Call) and ast.unparse(value.func).endswith("field"):
        for kw in value.keywords:
            if kw.arg == "init" and isinstance(kw.value, ast.Constant) \
                    and kw.value.value is False:
                return None
    return stmt.target.id


def _defaulted(args: ast.arguments) -> List[str]:
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    return names + [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None]


def defined_settings() -> Dict[str, Tuple[str, List[str]]]:
    """Record key -> (qualname, setting names) for src/repro.

    A function's key is ``module:first line`` and its settings are its
    defaulted parameters; a dataclass's key is ``module:Class`` and its
    settings are the fields its ``__init__`` takes.
    """
    found: Dict[str, Tuple[str, List[str]]] = {}

    def walk(nodes, prefix: str, rel: str) -> None:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno]
                            + [d.lineno for d in node.decorator_list])
                qual = prefix + node.name
                defaulted = _defaulted(node.args)
                if defaulted:
                    found[f"{rel}:{first}"] = (qual, defaulted)
                walk(node.body, qual + ".<locals>.", rel)
            elif isinstance(node, ast.ClassDef):
                qual = prefix + node.name
                if _is_dataclass(node):
                    fields = [f for f in map(_init_field, node.body) if f]
                    if fields:
                        found[f"{rel}:{qual}"] = (qual, fields)
                walk(node.body, qual + ".", rel)
            else:
                walk(ast.iter_child_nodes(node), prefix, rel)

    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        walk(ast.parse(path.read_text()).body, "", rel)
    return found


def load_values(records: Path) -> Dict[Tuple[str, str], Optional[Set[str]]]:
    """(record key, parameter) -> the values non-tests labels passed.

    None means some label passed data (a value that is not a scalar).
    """
    seen: Dict[Tuple[str, str], Optional[Set[str]]] = {}
    for path in sorted(records.glob("*.json")):
        doc = json.loads(path.read_text())
        for label, by_key in doc.get("values", {}).items():
            if label.split("/")[0] == "tests":
                continue
            for key, params in by_key.items():
                for name, values in params.items():
                    if values is None or seen.get((key, name), ()) is None:
                        seen[(key, name)] = None
                    else:
                        seen.setdefault((key, name), set()).update(values)
    return seen


def _config_values(config: object,
                   seen: Dict[Tuple[str, str], Set[str]]) -> None:
    """(record key, field) -> reprs of the values ``config`` holds, its
    nested configs (in fields, lists and tuples) included."""
    cls = type(config)
    module = sys.modules[cls.__module__].__file__
    key = f"{Path(module).resolve().relative_to(SRC).as_posix()}:{cls.__qualname__}"
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        seen.setdefault((key, field.name), set()).add(repr(value))
        nested = value if isinstance(value, (list, tuple)) else [value]
        for item in nested:
            if dataclasses.is_dataclass(item) and not isinstance(item, type):
                _config_values(item, seen)


def nightly_fields() -> Set[Tuple[str, str]]:
    """(record key, field) of harness configs ``smoke_config()`` and
    ``full_config()`` set differently, at any depth (the cells of a
    matrix included)."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    differing: Set[Tuple[str, str]] = set()
    # The audit's own calls are not traffic: a recorded process (the
    # reach tests) would otherwise count the nightly configs as run.
    profiler = sys.getprofile()
    sys.setprofile(None)
    try:
        for path in sorted(SRC.rglob("*.py")):
            tree = ast.parse(path.read_text())
            names = {n.name for n in tree.body
                     if isinstance(n, ast.FunctionDef)}
            if {"smoke_config", "full_config"} <= names:
                dotted = ".".join(("repro",) + path.relative_to(
                    SRC).with_suffix("").parts)
                module = importlib.import_module(dotted)
                full: Dict[Tuple[str, str], Set[str]] = {}
                smoke: Dict[Tuple[str, str], Set[str]] = {}
                _config_values(module.full_config(), full)
                _config_values(module.smoke_config(), smoke)
                differing.update(k for k in full.keys() | smoke.keys()
                                 if full.get(k) != smoke.get(k))
    finally:
        sys.setprofile(profiler)
    return differing


def _is_deployment(name: str) -> bool:
    return name in DEPLOYMENT or name.endswith(DEPLOYMENT_SUFFIXES)


def single_valued(records: Path) -> Iterator[str]:
    """``module:where qualname.setting = value`` per single-valued setting."""
    values = load_values(records)
    nightly = nightly_fields()
    for key, (qual, names) in sorted(defined_settings().items()):
        if qual.split(".")[0] in RUN_STATE:
            continue
        for name in names:
            taken = values.get((key, name))
            if (taken is None or len(taken) != 1 or _is_deployment(name)
                    or (key, name) in nightly):
                continue
            where = key if key.rsplit(":", 1)[1].isdigit() else key.split(
                ":")[0]
            yield f"{where} {qual}.{name} = {next(iter(taken))}"


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
    settings = list(single_valued(records))
    if list_all:
        for kind in ("unreached", "tests_only"):
            lines.append(f"\n{kind.replace('_', '-')} functions:")
            lines += [f"  {fn}" for r in rows.values() for fn in r[kind]]
        lines.append("\nsingle-valued settings:")
        lines += [f"  {setting}" for setting in settings]
    lines.append(f"unreached functions: {n_unreached}")
    lines.append(f"tests-only functions: {n_tests}")
    lines.append(f"single-valued settings: {len(settings)}")
    return "\n".join(lines)


def ratchet(text: str, committed: Dict[str, int]) -> List[str]:
    """The counts in a :func:`report` that rose above ``committed``."""
    counts = dict(line.rsplit(": ", 1) for line in text.splitlines()[-3:])
    return [f"{name} rose from {limit} to {counts[name]}"
            for name, limit in committed.items() if int(counts[name]) > limit]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="generated/reach",
                        help="records directory (default: generated/reach)")
    parser.add_argument("--list", action="store_true",
                        help="also list every unreached / tests-only function")
    args = parser.parse_args(argv)
    out = Path(args.out).resolve()
    run_targets(out)
    text = report(out, args.list)
    print(text)
    risen = ratchet(text, json.loads(COUNTS.read_text()))
    for line in risen:
        print(f"reach ratchet: {line} ({COUNTS.relative_to(ROOT)})",
              file=sys.stderr)
    return 1 if risen else 0


if __name__ == "__main__":
    sys.exit(main())
