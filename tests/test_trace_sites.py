"""The benchmark's per-layer trace wraps package names; they must keep resolving.

``perfbench/layers.py`` wraps functions where callers resolve them and
methods on their classes.  A renamed or removed name would make
``perfbench/run.py --trace 1`` fail only when someone runs it.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_site_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    sites = layers._sites()
    assert sites
    missing = [
        (span, getattr(owner, "__name__", repr(owner)), attr)
        for span, owner, attr in sites
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing
