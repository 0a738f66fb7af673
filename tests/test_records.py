"""The record helper against the standard library's dataclasses, its
reference: the same declarations must construct, compare, hash, replace and
convert to dicts alike."""

import dataclasses
import math
import pickle

import numpy as np
import pytest

from rieszkit import records
from rieszkit.atoms import Atom, AtomParams, AtomSampler
from rieszkit.geometry import Ball, dyadic_ball_family, scalar_family
from rieszkit.operators import PolynomialProfile, indicator
from rieszkit.quadrature import QuadratureScheme
from rieszkit.verify import AuditItem, VerificationReport
from rieszkit.weights import CriticalIndices, PowerWeight


def _declare(decorate, field):
    """A frozen value record and a mutable report, declared once for each
    implementation (``decorate`` is ``record`` or ``dataclass``)."""

    @decorate(frozen=True)
    class Scheme:
        resolution: int
        tol: float = 1e-6

        def __post_init__(self):
            object.__setattr__(self, "resolution", int(self.resolution))
            if self.resolution < 1:
                raise ValueError("resolution must be positive")

    @decorate
    class Report:
        name: str
        worst: float = 0.0
        rows: list = field(default_factory=list)
        extras: dict = field(default_factory=dict)

    return Scheme, Report


OURS = _declare(records.record, records.field)
STDLIB = _declare(dataclasses.dataclass, dataclasses.field)
BOTH = pytest.mark.parametrize("impl", [OURS, STDLIB], ids=["records", "dataclasses"])


@pytest.mark.parametrize("args, kwargs", [((3.0,), {}), ((3, 1e-3), {}),
                                          ((), {"resolution": 3}),
                                          ((3,), {"tol": 1e-3}),
                                          ((), {"tol": 1e-3, "resolution": 3})])
def test_init_takes_positions_keywords_and_defaults(args, kwargs):
    ours, ref = OURS[0](*args, **kwargs), STDLIB[0](*args, **kwargs)
    assert repr(ours) == repr(ref)
    assert (ours.resolution, ours.tol) == (ref.resolution, ref.tol)
    assert type(ours.resolution) is int            # __post_init__ ran


@BOTH
@pytest.mark.parametrize("args, kwargs", [((), {}), ((1, 2, 3), {}), ((1,), {"size": 2}),
                                          ((1,), {"resolution": 2})])
def test_init_refuses_bad_arguments(impl, args, kwargs):
    with pytest.raises(TypeError):
        impl[0](*args, **kwargs)


@BOTH
def test_post_init_validates(impl):
    with pytest.raises(ValueError):
        impl[0](0)


@BOTH
def test_default_factory_gives_each_instance_its_own_value(impl):
    a, b = impl[1]("a"), impl[1]("b")
    a.rows.append(1)
    a.extras["k"] = 2
    assert b.rows == [] and b.extras == {}
    assert "rows" not in vars(impl[1])             # no shared class attribute


@BOTH
def test_frozen_assignment_raises_attribute_error(impl):
    s = impl[0](4)
    with pytest.raises(AttributeError):
        s.tol = 1.0
    with pytest.raises(AttributeError):
        del s.tol
    r = impl[1]("r")
    r.worst = 2.0                                  # not frozen
    assert r.worst == 2.0


@BOTH
def test_value_equality_and_hash(impl):
    scheme, report = impl
    assert scheme(4, 1e-3) == scheme(4.0, 1e-3) and scheme(4) != scheme(5)
    assert hash(scheme(4, 1e-3)) == hash(scheme(4, 1e-3))
    assert len({scheme(4), scheme(4), scheme(8)}) == 2
    assert scheme(4) != (4, 1e-6)
    assert report("a", 1.0, [1]) == report("a", 1.0, [1]) != report("a", 2.0, [1])
    with pytest.raises(TypeError):
        hash(report("a"))                          # mutable and eq: unhashable


def test_replace_matches_stdlib():
    ours = records.replace(OURS[0](4), tol=1e-3)
    ref = dataclasses.replace(STDLIB[0](4), tol=1e-3)
    assert repr(ours) == repr(ref)
    assert repr(records.replace(OURS[1]("a", rows=[1]), name="b")) == repr(
        dataclasses.replace(STDLIB[1]("a", rows=[1]), name="b"))
    with pytest.raises(ValueError):                # __post_init__ runs again
        records.replace(OURS[0](4), resolution=0)
    with pytest.raises(TypeError):
        records.replace(OURS[0](4), size=1)


def test_package_records_keep_their_methods():
    q = QuadratureScheme(resolution=128, tol=1e-5)
    assert q.refined() == QuadratureScheme(256, 1e-5)
    assert repr(q) == "QuadratureScheme(resolution=128, tol=1e-05)"
    assert PowerWeight(0.5) == PowerWeight(0.5, 1, 1.0)
    assert hash(PowerWeight(0.5)) == hash(PowerWeight(0.5))
    for value in (q, PowerWeight(-0.25), scalar_family([1.0, -1.0])):
        copy = pickle.loads(pickle.dumps(value))
        assert repr(copy) == repr(value)
    with pytest.raises(AttributeError):
        q.resolution = 64


def _stdlib_twin(value):
    """``value`` with every record replaced by an instance of a standard
    dataclass that has the record's fields."""
    if hasattr(type(value), "_record_fields"):
        names = type(value)._record_fields
        twin = dataclasses.make_dataclass(type(value).__name__, names)
        return twin(*(_stdlib_twin(getattr(value, n)) for n in names))
    if isinstance(value, (list, tuple)):
        return type(value)(_stdlib_twin(v) for v in value)
    if isinstance(value, dict):
        return {k: _stdlib_twin(v) for k, v in value.items()}
    return value


def test_asdict_of_a_nested_report_matches_stdlib():
    idx = CriticalIndices(1.5, math.inf)
    report = VerificationReport(
        "theorem-thm1", "pass", 1.25,
        hypotheses=[AuditItem("weight in A_infinity", 1.5, True),
                    AuditItem("p in (0, 1]", 1.0, True, "detail")],
        stability={"drift": 1.1, "levels": (1.0, 1.1)},
        witnesses=[{"atom": 0, "ratio": 1.25}, (AuditItem("nested", "inf", False),)],
        extras={"critical": idx, "by_radius": {0.5: [idx]}},
        provenance={"seed": 7})
    ours = records.asdict(report)
    assert ours == dataclasses.asdict(_stdlib_twin(report))
    assert ours["extras"]["critical"] == {"q_critical": 1.5, "rh_critical": math.inf}
    assert ours == report.to_dict()
    ours["hypotheses"].append(None)                # new containers, not aliases
    assert len(report.hypotheses) == 2


def _array_records():
    ball = Ball([0.0, 1.0], 1.0)
    params = AtomParams(1.0, 2.0, 0, PowerWeight(0.5), 1)
    line = Ball([0.0], 1.0)
    return [ball, dyadic_ball_family([[0.0]], 0, 3), scalar_family([1.0, -1.0]),
            indicator([0.0], 1.0),
            Atom(line, PolynomialProfile({(0,): 1.0}), params, seed=3),
            AtomSampler((np.zeros(1), np.ones(1)), (0.5, 1.0))]


@pytest.mark.parametrize("value", _array_records(),
                         ids=["Ball", "BallFamily", "MatrixFamily", "SampledFunction",
                              "Atom", "AtomSampler"])
def test_records_holding_arrays_compare_by_identity(value):
    """Records that hold numpy arrays compare and hash by identity: a value
    comparison of arrays has no single truth value."""
    twin = records.replace(value)                  # equal fields, another object
    assert value == value and hash(value) == hash(value)
    assert (value == twin) is False and value != twin
    assert len({value, twin}) == 2
