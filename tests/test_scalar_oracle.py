"""Differential tests: the FracField scalar kernel against the expression oracle.

Both kernels lower the same generated expression trees with their own
arithmetic; every observable (canonical string, equality, hashing,
predicates, degree, derivatives, exact evaluation and the errors raised) must
agree.
"""

import itertools
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from leibniz_geo import ScalarField
from oracle_scalar import ScalarField as OracleField

BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv}
COORD_SETS = [(), ("x1",), ("x1", "x2"), ("x1", "x2", "x3")]

# Few, small values, so that denominators vanish at some of the points.
POINT_VALUES = (Fraction(0), Fraction(1), Fraction(-1, 2))


def points(coords):
    every = list(itertools.product(POINT_VALUES, repeat=len(coords)))
    return every[:: max(1, len(every) // 6)]


def trees(coords):
    leaves = st.integers(0, 4).map(lambda n: ("int", n))
    if coords:
        leaves = leaves | st.sampled_from(coords).map(lambda name: ("var", name))

    def extend(children):
        return (
            st.tuples(st.sampled_from(("add", "sub", "mul", "div")), children, children)
            | st.tuples(st.just("neg"), children)
            | st.tuples(st.just("pow"), children, st.integers(0, 3))
        )

    return st.recursive(leaves, extend, max_leaves=6)


def lower(node, cls, coords):
    """Lower a tree with the arithmetic of ``cls``, the same way for both kernels."""
    op = node[0]
    if op == "int":
        return cls.constant(node[1], coords)
    if op == "var":
        return cls.coordinate(coords.index(node[1]) + 1, coords)
    if op == "neg":
        return -lower(node[1], cls, coords)
    if op == "pow":
        return lower(node[1], cls, coords) ** node[2]
    lhs = lower(node[1], cls, coords)
    rhs = lower(node[2], cls, coords)
    return BINARY[op](lhs, rhs)


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return ("value", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raised", type(exc).__name__, str(exc))


def build(node, coords):
    """Both kernels' value for one tree; None when lowering divides by zero."""
    new = outcome(lower, node, ScalarField, coords)
    old = outcome(lower, node, OracleField, coords)
    assert new[0] == old[0], (new, old)
    if new[0] == "raised":
        assert new[1] == old[1] == "DivisionByZero"
        return None
    return new[1], old[1]


def assert_same(new, old, coords):
    assert str(new) == str(old)
    assert repr(new) == repr(old)
    assert new.is_zero == old.is_zero
    assert new.is_constant == old.is_constant
    assert new.total_degree() == old.total_degree()
    assert outcome(new.as_rational) == outcome(old.as_rational)
    assert (new == 0) == (old == 0)
    assert (new == 1) == (old == 1)
    for i in range(1, len(coords) + 1):
        assert str(new.diff(i)) == str(old.diff(i))
    for point in points(coords):
        assert outcome(new.eval_at, point) == outcome(old.eval_at, point)


@pytest.mark.parametrize("coords", COORD_SETS, ids=lambda c: f"n{len(c)}")
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_kernels_agree_on_one_expression(coords, data):
    pair = build(data.draw(trees(coords)), coords)
    if pair is None:
        return
    assert_same(*pair, coords)


@pytest.mark.parametrize("coords", COORD_SETS, ids=lambda c: f"n{len(c)}")
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_kernels_agree_on_binary_operations(coords, data):
    a_tree = data.draw(trees(coords))
    b_tree = data.draw(trees(coords))
    a, b = build(a_tree, coords), build(b_tree, coords)
    if a is None or b is None:
        return
    (a_new, a_old), (b_new, b_old) = a, b
    assert (a_new == b_new) == (a_old == b_old)
    if a_new == b_new:
        assert hash(a_new) == hash(b_new)
    again, _ = build(a_tree, coords)
    assert again == a_new and hash(again) == hash(a_new)
    for op in BINARY.values():
        new = outcome(op, a_new, b_new)
        old = outcome(op, a_old, b_old)
        assert new[0] == old[0], (op, new, old)
        if new[0] == "raised":
            assert new[1:] == old[1:]
        else:
            assert_same(new[1], old[1], coords)



X1 = ("var", "x1")
FIXED = [
    ("div", ("int", 1), ("sub", X1, ("int", 1))),  # pole at x1 = 1
    ("div", ("int", 2), ("mul", X1, X1)),  # pole at x1 = 0
    ("div", X1, ("sub", X1, X1)),  # division by the zero field
    ("pow", ("sub", X1, X1), 0),  # 0^0 = 1
    ("div", ("mul", ("int", 3), X1), ("add", ("mul", ("int", 4), X1), ("int", 2))),
]


@pytest.mark.parametrize("tree", FIXED, ids=str)
def test_kernels_agree_on_poles_and_zero_division(tree):
    coords = ("x1", "x2")
    pair = build(tree, coords)
    if pair is not None:
        assert_same(*pair, coords)
