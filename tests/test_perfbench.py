"""The benchmark's tracer must find every package name it wraps."""

from pathlib import Path

import parafatou

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_and_restores_package_names(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    # building the tracer looks up every wrapped attribute by name
    tracer = Tracer(parafatou)
    assert tracer.run("op", 0, lambda: "done") == "done"
    for owner, attr, orig, _ in tracer._swaps:
        assert owner.__dict__[attr] is orig, attr
