"""Function-entry recorder that ``tools/reach.py`` loads into every interpreter.

``reach.py`` puts this directory first on ``PYTHONPATH`` and sets
``REACH_RECORDS`` (where to write) and ``REACH_LABEL`` (who is running).
Every Python process of its run -- the make recipes, the subprocesses
they start, spawn workers -- imports this module at startup, records the
``src/repro`` functions it enters (``sys.setprofile`` call events) under
the current label and writes one JSON file at exit. A process started
with a ``PYTHONPATH`` of its own does not load it and is not recorded.

``PYTEST_PLUGINS=sitecustomize`` makes the module a pytest plugin as
well: entries are then labelled with the test file that collected or ran
them, and the label is exported so a child a test starts inherits it.
Without ``REACH_RECORDS`` the module does nothing.
"""

import atexit
import json
import os
import sys
import threading

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src", "repro") + os.sep
_RECORDS = os.environ.get("REACH_RECORDS")
_reached = {}
_current = set()


def _relabel(label):
    global _current
    os.environ["REACH_LABEL"] = label
    _current = _reached.setdefault(label, set())


def _on_event(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code.co_filename.startswith(_SRC):
            _current.add((code.co_filename, code.co_firstlineno))


def _dump():
    sys.setprofile(None)
    cut = len(_SRC)
    labels = {
        label: sorted([f[cut:].replace(os.sep, "/"), line] for f, line in hits)
        for label, hits in _reached.items() if hits
    }
    path = os.path.join(_RECORDS, f"{os.getpid()}-{os.urandom(4).hex()}.json")
    with open(path, "w") as fh:
        json.dump({"labels": labels}, fh)


def _keep_recording(pause):
    return None


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
    threading.setprofile(_on_event)
    sys.setprofile(_on_event)
