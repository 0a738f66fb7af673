"""The benchmark's tracer wraps rieszkit functions by name; every name must resolve."""

import os

from rieszkit import quadrature

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def test_tracer_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer

    targets = tracer._targets()
    assert targets
    for owner, attr, name, counts, when in targets:
        assert callable(getattr(owner, attr)), f"{owner.__name__}.{attr} ({name})"
        if when is not None:
            # the only filtered span selects profile calls by the log power s
            assert when(quadrature.LogPowerProfile(-1.0), None, None, 1)
            assert not when(quadrature.LogPowerProfile(1.0), None, None, 1)
