"""Scalar-field arithmetic, the expression grammar, and exact evaluation."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from leibniz_geo import ExprSyntaxError, PoleAtPoint, ScalarField, UnknownVariable
from leibniz_geo.expr import (
    MAX_CONSTANT_BITS,
    MAX_DEGREE,
    MAX_FRACTION_TERMS,
    MAX_NESTING,
    MAX_TERMS,
    parse_ast,
    parse_expr,
)

COORDS = ("x1", "x2")


def f(text):
    return parse_expr(text, COORDS)


def const(value):
    return ScalarField.constant(value, COORDS)


# -- independent reference evaluator over the raw AST -------------------------


def eval_ast(node, env):
    kind = node[0]
    if kind == "int":
        return Fraction(node[1])
    if kind == "var":
        return env[node[1]]
    if kind == "neg":
        return -eval_ast(node[1], env)
    if kind == "add":
        return eval_ast(node[1], env) + eval_ast(node[2], env)
    if kind == "sub":
        return eval_ast(node[1], env) - eval_ast(node[2], env)
    if kind == "mul":
        return eval_ast(node[1], env) * eval_ast(node[2], env)
    if kind == "div":
        return eval_ast(node[1], env) / eval_ast(node[2], env)
    if kind == "pow":
        return eval_ast(node[1], env) ** node[2]
    raise AssertionError(f"unknown node {kind}")


EXPRESSIONS = [
    "0",
    "42",
    "x1",
    "-x2",
    "x1 + x2",
    "x1 - 2*x2",
    "x1*x2 - x2*x1",
    "x1^3 - 3*x1^2 + 3*x1 - 1",
    "(x1 + x2)^2",
    "x1/(1 + x2^2)",
    "(x1^2 - 1)/(x1 - 1)",
    "1/2 + 1/3",
    "-(x1 - x2)*(x1 + x2)",
    "x1^2/x2 + x2^2/x1",
]

POINTS = [
    (Fraction(1), Fraction(2)),
    (Fraction(-3), Fraction(5)),
    (Fraction(1, 2), Fraction(7, 3)),
    (Fraction(4), Fraction(-1, 5)),
]


@pytest.mark.parametrize("text", EXPRESSIONS)
@pytest.mark.parametrize("point", POINTS)
def test_parser_matches_reference_evaluator(text, point):
    field = f(text)
    env = dict(zip(COORDS, point))
    try:
        expected = eval_ast(parse_ast(text), env)
    except ZeroDivisionError:
        # The normal form may cancel a removable singularity; a genuine pole
        # must still be reported.
        try:
            field.eval_at(point)
        except PoleAtPoint:
            pass
        return
    assert field.eval_at(point) == expected


@pytest.mark.parametrize("text", EXPRESSIONS)
def test_canonical_string_round_trips(text):
    field = f(text)
    assert parse_expr(str(field), COORDS) == field


def test_precedence_and_unary_minus():
    assert f("2 + 3*4") == const(14)
    assert f("2*3^2") == const(18)
    assert f("-x1^2").eval_at((Fraction(2), Fraction(0))) == Fraction(-4)
    assert f("(-x1)^2").eval_at((Fraction(2), Fraction(0))) == Fraction(4)
    assert f("6/3/2") == const(1)
    assert f("1 - 2 - 3") == const(-4)


def test_rational_function_normalization():
    assert f("(x1^2 - 1)/(x1 - 1)") == f("x1 + 1")
    assert f("x1/x1") == const(1)
    assert f("x1 - x1") == const(0)
    assert f("(x1*x2 + x2)/(x2)") == f("x1 + 1")


def test_syntax_errors_carry_position():
    for bad in ["", "x1 +", "((x1)", "x1^", "x1^x2", "2**3", "x1 x2", "@"]:
        with pytest.raises(ExprSyntaxError):
            parse_expr(bad, COORDS)


def test_nesting_at_the_cap_parses():
    assert f("(" * MAX_NESTING + "x1" + ")" * MAX_NESTING) == f("x1")
    assert f("-" * MAX_NESTING + "x1") == f("x1")
    assert f("-(" * (MAX_NESTING // 2) + "x1" + ")" * (MAX_NESTING // 2)) == f("x1")


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 3000])
def test_nesting_past_the_cap_is_a_syntax_error(depth):
    with pytest.raises(ExprSyntaxError) as excinfo:
        f("(" * depth + "x1" + ")" * depth)
    assert excinfo.value.position == MAX_NESTING
    with pytest.raises(ExprSyntaxError) as excinfo:
        f("-" * depth + "x1")
    assert excinfo.value.position == MAX_NESTING


def test_powers_up_to_the_degree_cap_parse():
    assert f("(1 + x1 + x2)^100").total_degree() == 100 <= MAX_DEGREE
    assert f(f"x1^{MAX_DEGREE}") == f("x1") ** MAX_DEGREE
    assert f(f"(x1/x2)^{MAX_DEGREE}") == (f("x1") / f("x2")) ** MAX_DEGREE
    assert f("7^1000") == const(7**1000)


@pytest.mark.parametrize(
    "text, position",
    [(f"x1^{MAX_DEGREE + 1}", 3), ("x1^100000", 3), ("(x1^100)^100", 9), ("(x1*x2^50)^2", 11)],
)
def test_power_past_the_degree_cap_is_a_syntax_error(text, position):
    with pytest.raises(ExprSyntaxError, match=f"exceeds {MAX_DEGREE}") as excinfo:
        f(text)
    assert excinfo.value.position == position


@pytest.mark.parametrize(
    "text, position",
    [
        ("(1+x1+x2)^20*(1+x1+x2)^20", 12),
        ("(1+x1+x2)^20/(1+x1+x2)^20", 12),
        ("(1+x1+x2+x1*x2+x1^2+x2^2)^16", 26),
    ],
)
def test_operation_past_the_term_cap_is_a_syntax_error(text, position):
    with pytest.raises(ExprSyntaxError, match=f"exceeds {MAX_TERMS}") as excinfo:
        f(text)
    assert excinfo.value.position == position


@pytest.mark.parametrize(
    "text, position",
    [
        ("1/(1+x1+x2+x3)^6 + 1/(2+x1+x2+x3)^6", 17),
        ("1/(1+x1+x2+x3)^6 - x1/(2+x1+x2+x3)^6", 17),
    ],
)
def test_sum_of_fractions_past_the_sum_cap_is_a_syntax_error(text, position):
    with pytest.raises(ExprSyntaxError, match=f"exceeds {MAX_FRACTION_TERMS}") as excinfo:
        parse_expr(text, ("x1", "x2", "x3"))
    assert excinfo.value.position == position


@pytest.mark.parametrize(
    "text, position",
    [
        ("1/(1+x1+x2+x3)^6 * (2+x1+x2+x3)^6", 17),
        ("(1+x1+x2+x3)^6 / (x1/(2+x1+x2+x3)^6)", 15),
    ],
)
def test_product_of_fractions_past_the_fraction_cap_is_a_syntax_error(text, position):
    # 85 * 85 term products, under MAX_TERMS but past the fraction cap.
    with pytest.raises(ExprSyntaxError, match=f"of fractions of 7225 term products exceeds {MAX_FRACTION_TERMS}") as excinfo:
        parse_expr(text, ("x1", "x2", "x3"))
    assert excinfo.value.position == position


def test_integer_literal_size_cap():
    # A literal is capped like a power of a constant with exponent 1.
    assert f(str(2**MAX_CONSTANT_BITS)) == f(f"2^{MAX_CONSTANT_BITS}")
    assert f("0" * 5000 + "1") == f("1")
    for text, position in [(str(2 ** (MAX_CONSTANT_BITS + 1)), 0), ("x1 + " + "9" * 5000, 5), ("x1^" + "7" * 4000, 3)]:
        with pytest.raises(ExprSyntaxError, match=f"integer literal of more than {MAX_CONSTANT_BITS} bits") as excinfo:
            f(text)
        assert excinfo.value.position == position


def test_polynomial_sums_are_not_capped():
    # 861 * 861 term products, linear in cost for polynomials.
    total = parse_expr("(1+x1+x2)^40 + (1+x2+x3)^40", ("x1", "x2", "x3"))
    assert total.frac.denom.is_one and len(total.frac.numer) == 1681


def test_unary_plus_is_the_identity():
    assert f("+x1") == f("x1")
    assert f("-+x1") == f("-x1")
    assert f("x2*+x1 - +3") == f("x1*x2 - 3")
    assert f("+" * MAX_NESTING + "x1") == f("x1")


def test_unary_plus_counts_toward_the_nesting_cap():
    with pytest.raises(ExprSyntaxError) as excinfo:
        f("+" * (MAX_NESTING + 1) + "x1")
    assert excinfo.value.position == MAX_NESTING
    with pytest.raises(ExprSyntaxError) as excinfo:
        f("-+" * (MAX_NESTING // 2) + "+x1")
    assert excinfo.value.position == MAX_NESTING


def test_coords_given_as_one_string_is_a_type_error():
    with pytest.raises(TypeError):
        parse_expr("x*y", "xy")


def test_constant_fields_hash_like_their_values():
    zero = const(0)
    half = const(Fraction(1, 2))
    assert zero in {0: "zero"} and {0: "zero"}[zero] == "zero"
    assert zero in {Fraction(0)} and 0 in {zero}
    assert half in {Fraction(1, 2): 1} and Fraction(1, 2) in {half}
    assert const(7) in {7} and f("x1 - x1") in {0}
    assert ScalarField.constant(3, ()) in {3}


def test_long_flat_chains_parse():
    terms = 3000
    assert f(" + ".join(["x1"] * terms)) == const(terms) * f("x1")
    assert f(" - ".join(["x2"] * terms)) == const(2 - terms) * f("x2")
    assert f("*".join(["x1"] * terms)) == f("x1") ** terms


def test_unknown_variable_is_named():
    with pytest.raises(UnknownVariable) as excinfo:
        parse_expr("x1 + y", COORDS)
    assert "y" in str(excinfo.value)


def test_division_by_zero_field():
    from leibniz_geo.errors import DivisionByZero

    with pytest.raises(DivisionByZero):
        f("x1") / const(0)
    with pytest.raises(DivisionByZero):
        parse_expr("x1/(x2 - x2)", COORDS)


def test_pole_detection():
    field = f("1/(x1 - 1)")
    assert field.eval_at((Fraction(2), Fraction(0))) == Fraction(1)
    with pytest.raises(PoleAtPoint):
        field.eval_at((Fraction(1), Fraction(0)))


def test_partial_derivatives():
    field = f("x1^3*x2 + x2^2")
    assert field.diff(1) == f("3*x1^2*x2")
    assert field.diff(2) == f("x1^3 + 2*x2")
    quotient = f("x1/x2")
    assert quotient.diff(2) == f("-x1/x2^2")


def test_mixed_partials_commute():
    field = f("x1^3*x2^2 + x1/(1 + x2^2)")
    assert field.diff(1).diff(2) == field.diff(2).diff(1)


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=9)


def field_from_fraction(q):
    return ScalarField.constant(q, COORDS)


small_fields = st.one_of(
    rationals.map(field_from_fraction),
    st.sampled_from([f("x1"), f("x2"), f("x1 + x2"), f("x1*x2"), f("x1^2 - x2")]),
)


@settings(max_examples=60, deadline=None)
@given(small_fields, small_fields, small_fields)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(small_fields, small_fields)
def test_leibniz_rule_for_derivatives(a, b):
    for i in (1, 2):
        assert (a * b).diff(i) == a.diff(i) * b + a * b.diff(i)


@settings(max_examples=40, deadline=None)
@given(small_fields)
def test_field_inverses(a):
    if a.is_zero:
        return
    one = ScalarField.constant(1, COORDS)
    assert a / a == one
    assert a * (one / a) == one


def test_zero_dimensional_scalars():
    c = ScalarField.constant(Fraction(5, 3), ())
    assert (c + c).as_rational() == Fraction(10, 3)
    assert c.eval_at(()) == Fraction(5, 3)
    assert c.is_constant


# Run in a fresh interpreter: ``{before}``, then ``import leibniz_geo.cli``
# with a hook counting the collector passes it starts, per generation.
_IMPORT_PROBE = """
import gc
passes = [0, 0, 0]
def count(phase, info):
    if phase == "start":
        passes[info["generation"]] += 1
gc.callbacks.append(count)
{before}
import leibniz_geo.cli
gc.callbacks.remove(count)
import sympy
print(*passes, gc.isenabled(), gc.get_freeze_count() > 10_000,
      any(o is sympy.Symbol for o in gc.get_objects()))
"""


def _probe_import(before=""):
    root = Path(__file__).resolve().parent.parent
    probe = _IMPORT_PROBE.format(before=before)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, cwd=root)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_moves_sympys_objects_out_of_the_collectors_view():
    # sympy loads with the collector paused, so its import starts no gen-1 or
    # full pass over the objects it builds, and then they are frozen.
    _, gen1, gen2, enabled, frozen, symbol_tracked = _probe_import()
    assert (gen1, gen2) == ("0", "0")
    assert (enabled, frozen, symbol_tracked) == ("True", "True", "False")
    # A host that switched the collector off finds it still off.
    *_, enabled, frozen, symbol_tracked = _probe_import("gc.disable()")
    assert (enabled, frozen, symbol_tracked) == ("False", "True", "False")
