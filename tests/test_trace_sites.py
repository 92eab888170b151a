"""The benchmark's per-layer trace wraps package names; they must keep resolving.

``perfbench/layers.py`` wraps functions where callers resolve them and
methods on their classes, and scipy's ``splu`` through ``flow.spla``, a
module reference that flow loads on its first read only for that (the
stepper's one solve path is the banded Cholesky).  A renamed or removed name would make
``perfbench/run.py --trace 1`` fail only when someone runs it.
"""

import importlib
from pathlib import Path

import pytest

import vkribbon.io as vk_io
from vkribbon import flow

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("layers")


def test_every_trace_site_resolves(layers):
    sites = layers._sites()
    assert sites
    missing = [
        (span, getattr(owner, "__name__", repr(owner)), attr)
        for span, owner, attr in sites
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing


def test_install_wraps_and_restores(layers):
    tracing = importlib.import_module("tracing")
    targets = [(owner, attr) for _, owner, attr in layers._sites()]
    targets += [(flow, "spla"), (vk_io, "atomic_write")]
    before = [getattr(owner, attr) for owner, attr in targets]
    splu = flow.spla.splu
    with tracing.Patches() as patches:
        layers.install(tracing.Tracer(), patches)
        assert all(getattr(o, a) is not old for (o, a), old in zip(targets, before))
        assert flow.spla.splu is not splu
    assert all(getattr(o, a) is old for (o, a), old in zip(targets, before))
    assert flow.spla.splu is splu
