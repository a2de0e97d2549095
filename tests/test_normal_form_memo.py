"""The memo of normal forms that lives for one check call.

``checks.run_all`` and ``checks.run_check`` enter ``scalar.normal_form_memo``
around the whole call, so a call cancels each distinct fraction and
differentiates each distinct fraction once.  The oracle is the un-memoised
path: every ``REGISTRY`` runner on a ``checks._Context`` built outside any
memo, whose records must equal the memoised call's, residual components
included.
"""

from pathlib import Path
from types import SimpleNamespace

import pytest
from sympy.polys.fields import FracElement

from leibniz_geo import checks, courant, scalar, tangent
from leibniz_geo.model import load_model
from conftest import count_cancels, make_rng, random_connection, random_metric

MODELS = Path(__file__).resolve().parent.parent / "models"
BUNDLED = ["courant1", "so3", "tangent2_hyperbolic", "tangent2_polar"]


def fixed_draw(A):
    """The document of the fixed draw of ``tests/test_geometry_oracle.py``:
    three affine connections, one metric and one function."""
    rng = make_rng(509)
    connections = {f"c{i}": random_connection(A, rng, degree=1) for i in range(3)}
    metric = random_metric(A, rng)
    return SimpleNamespace(
        algebroid=A,
        metrics={"g": metric},
        connections=connections,
        functions={"f": A.x(1) * A.x(1) + A.x(1)},
        tensors={},
    )


DOCUMENTS = {name: (lambda name=name: load_model(MODELS / f"{name}.model")) for name in BUNDLED}
DOCUMENTS["draw-tangent2"] = lambda: fixed_draw(tangent(2))
DOCUMENTS["draw-courant1"] = lambda: fixed_draw(courant(1))


def runners():
    """Every distinct runner, at its first id in report order."""
    return dict.fromkeys(checks.REGISTRY[check_id] for check_id in sorted(checks.REGISTRY, key=str.lower))


def dumped(records):
    return [record.to_record(dump=True) for record in records]


def unmemoised(doc, runner):
    assert scalar._memo is None
    return dumped(runner(checks._Context(doc)))


@pytest.mark.parametrize("name", DOCUMENTS)
def test_memoised_check_calls_equal_the_unmemoised_runners(name):
    doc = DOCUMENTS[name]()
    expected = [record for runner in runners() for record in unmemoised(doc, runner)]
    assert dumped(checks.run_all(doc)) == expected
    for check_id in checks.REGISTRY:
        assert dumped(checks.run_check(check_id, doc)) == unmemoised(doc, checks.REGISTRY[check_id])


def count_diffs(monkeypatch):
    """A list that grows by one on every ``FracElement.diff`` call."""
    calls = []
    original = FracElement.diff

    def counting(f, x):
        calls.append(1)
        return original(f, x)

    monkeypatch.setattr(FracElement, "diff", counting)
    return calls


# Per run_all: (gcd cancellations, derivatives of fractions); the parent of
# the memo made (312, 96) and (176, 60).
@pytest.mark.parametrize("name, cancels, diffs", [
    ("tangent2_hyperbolic", 60, 18),
    ("tangent2_polar", 53, 18),
])  # fmt: skip
def test_a_check_call_cancels_each_distinct_fraction_once(monkeypatch, name, cancels, diffs):
    doc = load_model(MODELS / f"{name}.model")
    cancelled, differentiated = count_cancels(monkeypatch), count_diffs(monkeypatch)
    for _ in range(2):
        cancelled.clear(), differentiated.clear()
        checks.run_all(doc)
        assert len(cancelled) <= cancels
        assert len(differentiated) <= diffs


def test_every_runner_of_a_call_shares_one_memo(monkeypatch):
    seen = []
    for check_id in ("SSp1", "SSp2"):
        runner = checks.REGISTRY[check_id]
        monkeypatch.setitem(
            checks.REGISTRY, check_id, lambda ctx, runner=runner: seen.append(scalar._memo) or runner(ctx)
        )
    checks.run_all(load_model(MODELS / "so3.model"))
    assert isinstance(seen[0], dict) and seen[1] is seen[0]


@pytest.mark.parametrize("call", [checks.run_all, lambda doc: checks.run_check("SSp3", doc)],
                         ids=["run_all", "run_check"])  # fmt: skip
def test_the_memo_is_dropped_when_the_call_returns(call):
    assert scalar._memo is None
    assert call(load_model(MODELS / "tangent2_polar.model"))
    assert scalar._memo is None


@pytest.mark.parametrize("call", [checks.run_all, lambda doc: checks.run_check("SSp3", doc)],
                         ids=["run_all", "run_check"])  # fmt: skip
def test_the_memo_is_dropped_when_a_runner_raises(monkeypatch, call):
    class Broken(Exception):
        pass

    def broken(ctx):
        assert scalar._memo is not None
        raise Broken

    monkeypatch.setitem(checks.REGISTRY, "SSp3", broken)
    with pytest.raises(Broken):
        call(load_model(MODELS / "so3.model"))
    assert scalar._memo is None


def test_a_nested_memo_restores_the_outer_one():
    with scalar.normal_form_memo():
        outer = scalar._memo
        outer["marker"] = 1
        with scalar.normal_form_memo():
            assert scalar._memo == {}
        assert scalar._memo is outer
        with pytest.raises(KeyError):
            with scalar.normal_form_memo():
                raise KeyError
        assert scalar._memo is outer
    assert scalar._memo is None


def test_outside_a_check_call_nothing_is_memoised():
    A = tangent(2)
    f = A.field("1/(x1 + x2)")
    assert f.diff(1) is not f.diff(1)
    with scalar.normal_form_memo():
        assert f.diff(1) is f.diff(1)
    assert scalar._memo is None
