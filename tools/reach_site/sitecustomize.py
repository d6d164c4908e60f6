"""Function-entry recorder that ``tools/reach.py`` loads into every interpreter.

``reach.py`` puts this directory first on ``PYTHONPATH`` and sets
``REACH_RECORDS`` (where to write) and ``REACH_LABEL`` (who is running).
Every Python process of its run -- the make recipes, the subprocesses
they start, spawn workers -- imports this module at startup (a forked
pool worker inherits it, recording on), records the ``src/repro``
functions it enters (``sys.setprofile`` call events) under the current
label and writes one JSON file at exit. A process started
with a ``PYTHONPATH`` of its own does not load it and is not recorded.

On each entry into a ``src/repro`` function or a ``repro.*`` dataclass
``__init__`` it also records the distinct values each parameter
receives. A value is kept if it is a scalar -- bool, int, float, str,
None, an enum, or a short tuple of those -- and otherwise marks the
parameter as data. Two values are enough to tell a setting from a
constant, so no more are kept; once every parameter of a function has
two values or is data, that function is no longer inspected under that
label.

``PYTEST_PLUGINS=sitecustomize`` makes the module a pytest plugin as
well: entries are then labelled with the test file that collected or ran
them, and the label is exported so a child a test starts inherits it.
Without ``REACH_RECORDS`` the module does nothing.
"""

import atexit
import enum
import json
import os
import sys
import threading
import zlib

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src", "repro") + os.sep
_RECORDS = os.environ.get("REACH_RECORDS")
_SCALARS = (bool, int, float, str, type(None), enum.Enum)
_DATA = None  # a parameter's value set once it has taken a non-scalar
_reached = {}
_values = {}
_current = set()
_current_values = {}
_settled = {}
_done = set()
_dataclass_key = {}  # generated __init__ code -> "module.py:Class" or None


def _relabel(label):
    global _current, _current_values, _done
    os.environ["REACH_LABEL"] = label
    _current = _reached.setdefault(label, set())
    _current_values = _values.setdefault(label, {})
    _done = _settled.setdefault(label, set())


def _scalar(value):
    """A short stable text for a scalar, or None for data."""
    if isinstance(value, tuple):
        if len(value) > 8 or not all(isinstance(v, _SCALARS) for v in value):
            return None
    elif not isinstance(value, _SCALARS):
        return None
    text = repr(value)
    if len(text) > 80:
        text = f"{text[:60]}...#{zlib.crc32(text.encode()):08x}"
    return text


def _dataclass_of(code, frame):
    """``module.py:Class`` of the repro dataclass whose ``__init__`` runs."""
    if code not in _dataclass_key:
        key = None
        params = code.co_varnames[:code.co_argcount]
        this = frame.f_locals.get(params[0]) if params else None
        for klass in type(this).__mro__:
            init = klass.__dict__.get("__init__")
            if getattr(init, "__code__", None) is code:
                module = sys.modules.get(klass.__module__)
                path = getattr(module, "__file__", None) or ""
                if (klass.__module__.startswith("repro.")
                        and path.startswith(_SRC)
                        and "__dataclass_fields__" in klass.__dict__):
                    rel = path[len(_SRC):].replace(os.sep, "/")
                    key = f"{rel}:{klass.__qualname__}"
                break
        _dataclass_key[code] = key
    return _dataclass_key[code]


def _record_values(key, code, frame):
    n = code.co_argcount + code.co_kwonlyargcount
    names = code.co_varnames[:n]
    if names and names[0] in ("self", "cls", "__dataclass_self__"):
        names = names[1:]
    seen = _current_values.setdefault(key, {})
    local = frame.f_locals
    settled = True
    for name in names:
        values = seen.get(name, ())
        if values is _DATA or len(values) >= 2:
            continue
        text = _scalar(local.get(name))
        if text is None:
            seen[name] = _DATA
            continue
        if not values:
            values = seen[name] = set()
        values.add(text)
        settled = settled and len(values) >= 2
    if settled:
        _done.add(code)


def _on_event(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code.co_filename.startswith(_SRC):
            _current.add((code.co_filename, code.co_firstlineno))
            if code not in _done:
                key = (f"{code.co_filename[len(_SRC):].replace(os.sep, '/')}"
                       f":{code.co_firstlineno}")
                _record_values(key, code, frame)
        elif (code.co_filename == "<string>" and code.co_name == "__init__"
                and code not in _done):
            key = _dataclass_of(code, frame)
            if key is None:
                _done.add(code)
            else:
                _record_values(key, code, frame)


def _dump():
    sys.setprofile(None)
    cut = len(_SRC)
    labels = {
        label: sorted([f[cut:].replace(os.sep, "/"), line] for f, line in hits)
        for label, hits in _reached.items() if hits
    }
    values = {}
    for label, by_key in _values.items():
        if by_key:
            values[label] = {
                key: {name: None if v is _DATA else sorted(v)
                      for name, v in params.items()}
                for key, params in by_key.items()}
    path = os.path.join(_RECORDS, f"{os.getpid()}-{os.urandom(4).hex()}.json")
    with open(path, "w") as fh:
        json.dump({"labels": labels, "values": values}, fh)


def _keep_recording(pause):
    return None


def _exit_after_dump(code):
    # A worker that dies through ``os._exit`` (the executor's crash
    # tests) skips atexit; write its records first.
    _dump()
    _os_exit(code)


# pytest hooks (active when PYTEST_PLUGINS names this module).
def pytest_configure(config):
    fixture = sys.modules.get("pytest_benchmark.fixture")
    if _RECORDS and fixture is not None:
        # pytest-benchmark switches the profiler off while it times a
        # benchmark body, which would hide every paper benchmark's work.
        fixture.PauseInstrumentation.__enter__ = _keep_recording


def pytest_collectstart(collector):
    if _RECORDS and collector.nodeid:
        _relabel(collector.nodeid.split("::")[0])


def pytest_runtest_setup(item):
    if _RECORDS:
        _relabel(item.nodeid.split("::")[0])


if _RECORDS:
    _relabel(os.environ.get("REACH_LABEL", "(unlabelled)"))
    atexit.register(_dump)
    _os_exit = os._exit
    os._exit = _exit_after_dump
    threading.setprofile(_on_event)
    sys.setprofile(_on_event)
