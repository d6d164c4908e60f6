"""The report kernel: what a ``BENCH_*.json`` report *is*, decided once.

Every harness (perf, faults, serve, chaos, scaling) emits the same
envelope::

    {
      "kind": "repro-<x>-report", "schema_version": 1,
      "config":      { the invocation; pure content, never workers/paths },
      "environment": { host description; never compared },
      "cells":       [ { result cell } | { identity..., "error": "..." } ]
    }

and differs only in *tables*: which config and cell fields exist, which
fields name a cell, and which metrics gate a comparison. Every field is
simulated or counted; only ``environment`` describes the host. A
:class:`ReportSpec` holds those tables (one per report kind, declared
next to its format docstring in ``repro.perf.schema``,
``repro.faults.schema`` and ``repro.serve.schema``) and everything else
-- validation, cell keys, error cells, the deterministic view, the
regression gate, loading and assembling documents -- runs off the spec
here. Stdlib only: validating a report never needs the simulator.

Field tables map a field name to its type: ``bool`` / ``int`` /
``str`` / ``list`` / ``dict`` (``int`` never admits a bool), a
:class:`Num` (a *finite* number, optionally bounded -- ``NaN`` and
``Infinity`` parse as JSON but are never valid measurements), a nested
table (the value must be an object with those fields), or a one-element
list ``[table]`` (a list of such objects). A trailing ``?`` on the name
marks the field optional: absent is fine, present must type-check.
Fields a table does not name are ignored, so reports may grow.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import platform
import string
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_ERROR = 2

#: A gated metric may move the wrong way by at most this many percent.
DEFAULT_THRESHOLD_PCT = 10.0

#: Availability may drop at most this many percentage points before a
#: ``pp`` gate fires (absolute, since availability lives on [0, 1]
#: where relative thresholds are meaningless near 1.0).
DEFAULT_AVAILABILITY_DROP_PP = 1.0

Table = Dict[str, Any]


@dataclass(frozen=True)
class Num:
    """Field type: a finite number, never a bool.

    ``lo``/``hi`` are inclusive bounds, ``above`` an exclusive lower
    bound, ``integral`` restricts to ints.
    """

    lo: Optional[float] = None
    hi: Optional[float] = None
    above: Optional[float] = None
    integral: bool = False

    def problem(self, val: Any) -> Optional[str]:
        want = "int" if self.integral else "number"
        if isinstance(val, bool) or not isinstance(
            val, int if self.integral else (int, float)
        ):
            return f"has type {type(val).__name__}, expected {want}"
        if not math.isfinite(val):
            return f"is {val}, expected a finite {want}"
        if self.lo is not None and val < self.lo:
            return f"must be >= {self.lo}, got {val}"
        if self.hi is not None and val > self.hi:
            return f"must be <= {self.hi}, got {val}"
        if self.above is not None and val <= self.above:
            return f"must be > {self.above}, got {val}"
        return None


NUM = Num()
_INT = Num(integral=True)
FRACTION = Num(lo=0.0, hi=1.0)
POSITIVE = Num(above=0.0)
AT_LEAST_ONE = Num(lo=1, integral=True)

#: Latency summaries: the three gated percentiles must be present and
#: non-negative (``mean``/``max`` ride along unchecked).
PERCENTILES: Table = {
    "p50": Num(lo=0.0), "p99": Num(lo=0.0), "p999": Num(lo=0.0),
}


def _check(val: Any, typ: Any, where: str, errors: List[str]) -> None:
    if isinstance(typ, dict):
        if isinstance(val, dict):
            check_fields(val, typ, where, errors)
        else:
            errors.append(f"{where}: must be an object")
    elif isinstance(typ, list):
        if isinstance(val, list):
            for i, item in enumerate(val):
                _check(item, typ[0], f"{where}[{i}]", errors)
        else:
            errors.append(f"{where}: must be a list")
    else:
        problem = (
            typ.problem(val) if isinstance(typ, Num)
            else _INT.problem(val) if typ is int
            else None if isinstance(val, typ)
            else f"has type {type(val).__name__}, expected {typ.__name__}"
        )
        if problem:
            errors.append(f"{where}: {problem}")


def check_fields(
    obj: Dict[str, Any], table: Table, where: str, errors: List[str]
) -> None:
    """Append one finding per missing or mistyped field of ``table``."""
    for name, typ in table.items():
        optional = name.endswith("?")
        name = name.rstrip("?")
        if name in obj:
            _check(obj[name], typ, f"{where}.{name}" if where else name, errors)
        elif not optional:
            errors.append(f"{where or 'report'}: missing field {name!r}")


def dig(obj: Any, path: str) -> Any:
    """``obj["a"]["b"]`` for the dotted ``path`` ``"a.b"``; None if absent."""
    for part in path.split("."):
        if not isinstance(obj, dict) or part not in obj:
            return None
        obj = obj[part]
    return obj


def _headline(error: Any) -> str:
    """First line of an error cell's traceback-or-note."""
    lines = str(error).strip().splitlines()
    return lines[0] if lines else "cell failed"


@dataclass(frozen=True)
class Gate:
    """One row of a spec's regression-gate table.

    ``path`` is the gated metric inside a cell; ``better`` says which
    direction is good; ``mode`` how a change is measured -- ``pct``
    (relative, against :data:`DEFAULT_THRESHOLD_PCT`), ``pp`` (absolute
    x100, against :data:`DEFAULT_AVAILABILITY_DROP_PP`), ``abs`` (any move the wrong way)
    or ``flag`` (a perfect baseline, >= 1 / true, must stay perfect).
    ``show`` renders the metric into the cell's summary line and
    ``fail`` words the regression; ``positive`` marks a baseline <= 0
    as degenerate (an ERROR) instead of skipping the gate. A gate whose
    path is absent on either side (an optional block) is skipped.
    """

    path: str
    better: str
    mode: str
    show: str = ""
    fail: str = ""
    positive: bool = False

    def delta(self, old: float, new: float) -> float:
        if self.mode == "pct":
            return (new - old) / old * 100.0 if old > 0 else 0.0
        return (new - old) * (100.0 if self.mode == "pp" else 1.0)

    def regressed(self, old: float, new: float, limit: float) -> bool:
        if self.mode == "flag":
            return old >= 1 and new < 1
        worse = self.delta(old, new) * (1 if self.better == "lower" else -1)
        return worse > limit and not (self.mode == "pct" and old <= 0)


_REGISTRY: Dict[str, "ReportSpec"] = {}

#: Modules whose import declares the specs (each registers on creation).
_SPEC_MODULES = ("repro.perf.schema", "repro.faults.schema",
                 "repro.serve.schema")


@dataclass
class ReportSpec:
    """The tables that define one report kind (see the module docstring).

    ``key`` is a format string over the identity fields of a cell
    (``"{scheme}/{trace}"``); ``key_suffixes`` are optional integer
    identity fields appended when > 1 (``("shards", "@s{}")``).
    ``blocks`` are extra required top-level blocks, ``checks`` extra
    ``(cell, where, errors)`` invariants run on shape-clean result
    cells, ``gates`` + ``drift`` the comparison (``drift`` paths are
    diffed for the note only; ``"sim.*"`` means every key of ``sim``).

    The text rendering is a table too: ``title`` is a format string
    over the config fields plus ``{flavor}`` (or a ``(doc, flavor)``
    callable), ``summary`` the columns as ``(label, source[, divisor])``
    with ``source`` a dotted cell path or a ``cell`` callable, and
    ``footer`` maps the document to extra trailing lines.
    """

    kind: str
    config: Table
    cell: Table
    key: str
    key_suffixes: Tuple[Tuple[str, str], ...] = ()
    blocks: Table = field(default_factory=dict)
    checks: Tuple[Callable[[Dict[str, Any], str, List[str]], None], ...] = ()
    gates: Tuple[Gate, ...] = ()
    drift: Tuple[str, ...] = ()
    drift_label: str = "drift"
    noun: str = "matrix"
    title: Any = ""
    summary: Tuple[Tuple[Any, ...], ...] = ()
    footer: Optional[Callable[[Dict[str, Any]], List[str]]] = None

    def __post_init__(self) -> None:
        self.identity = tuple(
            name for _, name, _, _ in string.Formatter().parse(self.key)
            if name
        )
        self.error_cell_table: Table = {
            **{name: self.cell[name] for name in self.identity},
            **{f"{name}?": self.cell[f"{name}?"]
               for name, _ in self.key_suffixes},
            "error": str,
        }
        _REGISTRY[self.kind] = self

    # ------------------------------------------------------------ identity

    def cell_key(self, cell: Dict[str, Any]) -> str:
        """Stable identity of one cell (result or error entry)."""
        key = self.key.format(**cell)
        for name, suffix in self.key_suffixes:
            if cell.get(name, 1) > 1:
                key += suffix.format(cell[name])
        return key

    def error_cell(
        self, identity: Dict[str, Any], error: Optional[str]
    ) -> Dict[str, Any]:
        """The entry recorded for a cell whose worker failed."""
        return {**identity, "error": error}

    # ---------------------------------------------------------- validation

    def validate(self, doc: Any) -> List[str]:
        """Validate a parsed report; returns a list of problems (empty = ok)."""
        if not isinstance(doc, dict):
            return [f"report root is {type(doc).__name__}, expected object"]
        errors: List[str] = []
        if doc.get("kind") != self.kind:
            errors.append(f"kind is {doc.get('kind')!r}, expected {self.kind!r}")
        if doc.get("schema_version") != SCHEMA_VERSION:
            errors.append(
                f"schema_version is {doc.get('schema_version')!r}, "
                f"expected {SCHEMA_VERSION}"
            )
        check_fields(
            doc, {"config": self.config, "environment": dict, **self.blocks},
            "", errors,
        )
        cells = doc.get("cells")
        if not isinstance(cells, list) or not cells:
            errors.append("cells: missing, not a list, or empty")
            return errors
        seen = set()
        for i, cell in enumerate(cells):
            where = f"cells[{i}]"
            if not isinstance(cell, dict):
                errors.append(f"{where}: not an object")
                continue
            before = len(errors)
            if "error" in cell:
                check_fields(cell, self.error_cell_table, where, errors)
            else:
                check_fields(cell, self.cell, where, errors)
                if len(errors) == before:
                    for check in self.checks:
                        check(cell, where, errors)
            ident = tuple(cell.get(name) for name in self.identity) + tuple(
                cell.get(name, 1) for name, _ in self.key_suffixes
            )
            try:
                if ident in seen:
                    errors.append(f"{where}: duplicate cell {ident}")
                seen.add(ident)
            except TypeError:
                # Unhashable identity: its type error is already recorded.
                pass
        return errors

    # -------------------------------------------------- deterministic view

    def deterministic_view(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        """The report minus its host description.

        Two runs with the same config -- on any machine, at any worker
        count -- must produce identical views: only the ``environment``
        block is dropped.
        """
        return {k: v for k, v in doc.items() if k != "environment"}

    def deterministic_bytes(self, doc: Dict[str, Any]) -> bytes:
        """Canonical JSON encoding of :meth:`deterministic_view`."""
        return json.dumps(
            self.deterministic_view(doc), sort_keys=True,
            separators=(",", ":"),
        ).encode()

    # ----------------------------------------------------------- rendering

    def render(self, doc: Dict[str, Any]) -> str:
        """Text form: one table row per result cell, one line per error."""
        from repro.analysis.report import render_mapping_table

        cfg = doc["config"]
        flavor = "smoke" if cfg.get("smoke") else "full"
        title = (
            self.title(doc, flavor) if callable(self.title)
            else self.title.format(flavor=flavor, **cfg)
        )
        rows = []
        for cell in doc["cells"]:
            if "error" in cell:
                continue
            row = {"cell": self.cell_key(cell)}
            for label, source, *divisor in self.summary:
                value = source(cell) if callable(source) else dig(cell, source)
                row[label] = value / divisor[0] if divisor else value
            rows.append(row)
        lines = [
            render_mapping_table(rows, title=title) if rows
            else f"{title}\n(no completed cells)"
        ]
        lines += [
            f"ERROR {self.cell_key(cell)}: {_headline(cell['error'])}"
            for cell in doc["cells"] if "error" in cell
        ]
        return "\n".join(lines + (self.footer(doc) if self.footer else []))

    # ---------------------------------------------------------- comparison

    def _drifted(self, base: Dict[str, Any], cur: Dict[str, Any]) -> List[str]:
        paths: List[str] = []
        for path in self.drift:
            if path.endswith(".*"):
                block = path[:-2]
                names = set(dig(base, block) or {}) | set(dig(cur, block) or {})
                paths.extend(f"{block}.{name}" for name in sorted(names))
            else:
                paths.append(path)
        return [
            p.rsplit(".", 1)[-1] for p in paths if dig(base, p) != dig(cur, p)
        ]

    def _judge(
        self, key: str, base: Dict[str, Any], cur: Dict[str, Any],
        limits: Dict[str, float],
    ) -> Tuple[int, str]:
        """The exit level and message line for one matched cell pair."""
        shown: List[str] = []
        failed: Optional[Tuple[Gate, Any, Any]] = None
        for gate in self.gates:
            old, new = dig(base, gate.path), dig(cur, gate.path)
            if old is None or new is None:
                continue
            if gate.positive and old <= 0:
                return EXIT_ERROR, (
                    f"ERROR {key}: degenerate baseline "
                    f"({gate.path.rsplit('.', 1)[-1]}={old})"
                )
            if gate.show:
                shown.append(gate.show.format(
                    old=old, new=new, delta=gate.delta(old, new),
                ))
            if failed is None and gate.regressed(
                old, new, limits.get(gate.mode, 0.0)
            ):
                failed = (gate, old, new)
        drifted = self._drifted(base, cur)
        note = f" ({self.drift_label}: {', '.join(drifted)})" if drifted else ""
        line = f"{key}: {', '.join(shown)}{note}"
        if failed is None:
            return EXIT_OK, f"OK {line}"
        gate, old, new = failed
        if gate.mode in limits:
            return EXIT_REGRESSION, f"REGRESSION {line}" + gate.fail.format(
                limit=limits[gate.mode]
            )
        return EXIT_REGRESSION, f"REGRESSION {key}: " + gate.fail.format(
            old=old, new=new, pct=float(new) * 100.0
        )

    def compare(
        self, baseline: Dict[str, Any], new: Dict[str, Any],
    ) -> Tuple[int, List[str]]:
        """Gate two validated reports; returns (exit_code, messages).

        Cells match by :meth:`cell_key`. Exit 0: every baseline cell is
        present and inside its gates (improvements are fine). Exit 1: a
        gate fired (first failing gate of the table words the line).
        Exit 2: a baseline cell is missing, errored on either side, or
        degenerate -- a matrix that silently shrank is an error, never
        a pass. Cells only in ``new`` are informational.
        """
        limits = {"pct": DEFAULT_THRESHOLD_PCT,
                  "pp": DEFAULT_AVAILABILITY_DROP_PP}
        base_cells = {self.cell_key(c): c for c in baseline["cells"]}
        new_cells = {self.cell_key(c): c for c in new["cells"]}
        messages: List[str] = []
        exit_code = EXIT_OK
        for key, base in base_cells.items():
            cur = new_cells.get(key)
            if cur is None:
                problem = "cell missing from new report"
            elif "error" in base:
                problem = "baseline cell is an error entry"
            elif "error" in cur:
                problem = f"cell errored in new report: {_headline(cur['error'])}"
            else:
                problem = None
            level, line = (
                (EXIT_ERROR, f"ERROR {key}: {problem}") if problem
                else self._judge(key, base, cur, limits)
            )
            exit_code = max(exit_code, level)
            messages.append(line)
        messages.extend(
            f"NEW {key}: no baseline entry ({self.noun} grew)"
            for key in new_cells if key not in base_cells
        )
        return exit_code, messages


# ------------------------------------------------------------ kind dispatch

def spec_for(doc: Any) -> Optional[ReportSpec]:
    """The spec a parsed document's ``kind`` names (None if unknown)."""
    for module in _SPEC_MODULES:
        importlib.import_module(module)
    kind = doc.get("kind") if isinstance(doc, dict) else None
    return _REGISTRY.get(kind) if isinstance(kind, str) else None


def load_report(
    path: str, kinds: Optional[Sequence[str]] = None
) -> Tuple[Any, List[str]]:
    """Parse and validate one report file; returns (doc, errors).

    Validates against the spec the document's ``kind`` names
    (restricted to ``kinds`` when given). Unreadable, truncated,
    non-UTF-8 or non-JSON files yield a one-line error, never a
    traceback.
    """
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError.
        return None, [f"{path}: cannot load report: {exc}"]
    spec = spec_for(doc)
    if spec is None or (kinds and spec.kind not in kinds):
        kind = doc.get("kind") if isinstance(doc, dict) else None
        expected = " or ".join(repr(k) for k in kinds or sorted(_REGISTRY))
        return doc, [f"{path}: kind is {kind!r}, expected {expected}"]
    return doc, [f"{path}: {e}" for e in spec.validate(doc)]


def save_report(doc: Dict[str, Any], path: str) -> List[str]:
    """Self-check ``doc`` and write it in the canonical file encoding.

    Returns the validation problems; a document with any is not
    written. The parent directory is created if missing.
    """
    spec = spec_for(doc)
    errors = (
        spec.validate(doc) if spec is not None
        else [f"unrecognized report kind {doc.get('kind')!r}"]
    )
    if not errors:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    return errors


def compare_files(
    baseline_path: str,
    new_path: str,
    kinds: Optional[Sequence[str]] = None,
) -> Tuple[int, List[str]]:
    """File-level entry: load, validate, gate by the reports' kind."""
    base, base_errs = load_report(baseline_path, kinds)
    new, new_errs = load_report(new_path, kinds)
    errors = base_errs + new_errs
    if errors:
        return EXIT_ERROR, [f"ERROR {e}" for e in errors]
    if base["kind"] != new["kind"]:
        return EXIT_ERROR, [
            f"ERROR cannot compare {base['kind']!r} against "
            f"{new['kind']!r} reports"
        ]
    return _REGISTRY[base["kind"]].compare(base, new)


# ---------------------------------------------------------------- assembly

def environment() -> Dict[str, str]:
    """The host description every report embeds (never compared)."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "implementation": sys.implementation.name,
    }


def assemble(
    spec: ReportSpec,
    config: Dict[str, Any],
    identities: Sequence[Dict[str, Any]],
    outputs: Sequence[Any],
    **blocks: Any,
) -> Dict[str, Any]:
    """Fold ``run_cells`` outputs into a report document.

    ``identities[i]`` names cell ``i``; an output that is not ``ok``
    becomes that identity's error cell instead of shrinking the
    matrix. ``blocks`` are the spec's extra top-level blocks.
    """
    return {
        "kind": spec.kind,
        "schema_version": SCHEMA_VERSION,
        "config": config,
        "environment": environment(),
        **blocks,
        "cells": [
            res.value if res.ok else spec.error_cell(identity, res.error)
            for identity, res in zip(identities, outputs)
        ],
    }
