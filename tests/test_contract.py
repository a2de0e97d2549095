"""Differential tests: ``tensor.contract`` against ``np.einsum`` on object arrays.

numpy is the oracle here and only here: the engine's kernel is a hash join on
the nonzero entries of sparse ``Components`` stores, and each subscript string
the package passes (read from the source and recorded from check-all runs on
the bundled models), together with the einsum strings the kernel replaced
(ranks 1 to 4), must give the same component strings as ``np.einsum`` on
seeded random sparse arrays of ScalarField.  '...' and repeated labels are
refused: every term names each axis of its operand once.

The second oracle is the join that normalised every product and partial sum
(``tests/oracle_contract.py``): ``contract_sum``, which normalises each output
entry once, must give its component strings on signed sums of contractions
of seeded stores whose rational entries share some denominators, and must do
no gcd on a sum that cancels.
"""

import itertools
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import leibniz_geo
from leibniz_geo import ScalarField, checks
from leibniz_geo.model import load_model
from leibniz_geo.tensor import Components, contract, contract_sum
from conftest import count_cancels, dense, store
import oracle_contract

ROOT = Path(__file__).resolve().parent.parent
COORDS = ("x1", "x2")

# The np.einsum subscripts of the kernels before the sparse store that label
# each axis once.
EINSUM_SUBSCRIPTS = (
    "af,fdec->adec", "ai,abc->ibc", "bci->ibc", "cbi->ibc", "af,fb->ab",
    "ai,adec->idec", "ab,b->a", "ai,a->i", "ec,da->adec", "eab,ec->abc", "b,ab->a",
    "edb,adec->abc", "bacd->abcd", "cabd->abcd", "ecd,abe->abcd", "ebd,ace->abcd",
    "ebc,aed->abcd", "abcd,b,c,d->a", "abc,b,c->a", "mcd,mb->bcd", "dbc->bcd", "cbd->bcd",
    "mx,mpey->xpey", "bped->bdep", "cped->cdep", "dpec->cdep", "abc,a->bc", "eabc,ed->abcd",
    "eabd,ec->abcd", "db,abc->dac", "dab,dc->abc", "dac,bd->abc",
    "mab,nmc,nd->abcd", "bac->abc", "acb->abc", "ab->ba",
)  # fmt: skip


# The subscripts of the terms of the multi-term contract_sum calls that no
# np.einsum call used.
TERM_SUBSCRIPTS = (
    "abc->abc", "abcd->abcd", "ab->ab", "a->a", "bcd->bcd", "mbc,md->bcd", "mbd,mc->bcd",
    "eab,ec,db->dac", "abc,c,b->a", "ae,ebc,b,c->a",
)  # fmt: skip


def source_subscripts():
    """The literal subscripts in the package source: of every contract call and
    of every (coeff, subscripts, *operands) term of a contract_sum call."""
    found = set()
    for path in (ROOT / "src" / "leibniz_geo").glob("*.py"):
        text = path.read_text()
        found.update(re.findall(r'contract\(\s*"([^"]+)"', text))
        found.update(re.findall(r'\(\s*[^(),"]+,\s*"([^"]*->[^"]*)",', text))
    return found


def recorded_subscripts(monkeypatch):
    """Every subscript string the package passes while checking the bundled models."""
    seen = set()
    original = leibniz_geo.tensor.contract_sum

    def recording(*terms):
        seen.update(term[1] for term in terms)
        return original(*terms)

    for name, module in list(sys.modules.items()):
        if name.startswith("leibniz_geo.") and getattr(module, "contract_sum", None) is original:
            monkeypatch.setattr(module, "contract_sum", recording)
    for path in sorted((ROOT / "models").glob("*.model")):
        checks.run_all(load_model(path))
    return seen


def random_entry(rng):
    x1, x2 = (ScalarField.coordinate(i, COORDS) for i in (1, 2))
    c = ScalarField.constant(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)), COORDS)
    return rng.choice((c, c * x1 + 1, x2 * x2 - c, (x1 + c) / (x2 + 2)))


def random_store(rng, shape, density):
    entries = {
        idx: random_entry(rng)
        for idx in itertools.product(*map(range, shape))
        if rng.random() < density
    }
    return Components(shape, COORDS, entries)


def random_operands(rng, subscripts):
    """Operands for subscripts: each label gets a size in 1..3."""
    lhs = subscripts.split("->")[0].split(",")
    sizes = {label: rng.randint(1, 3) for label in sorted(set("".join(lhs)))}
    density = rng.choice((0.2, 0.5, 1.0))
    return [random_store(rng, tuple(sizes[label] for label in spec), density) for spec in lhs]


def agrees_with_einsum(subscripts, operands):
    got = contract(subscripts, *operands)
    expected = np.asarray(np.einsum(subscripts, *[dense(op) for op in operands]), dtype=object)
    assert got.shape == expected.shape, subscripts
    assert [str(x) for x in dense(got).flat] == [str(x) for x in expected.flat], subscripts
    assert all(not value.is_zero for value in got.entries.values()), subscripts


def test_source_subscripts_are_covered():
    found = source_subscripts()
    assert {"dab,dc->abc", "ebc,aed->abcd", "mbc,md->bcd"} <= found  # contract_sum terms
    assert found <= set(EINSUM_SUBSCRIPTS) | set(TERM_SUBSCRIPTS)


def test_every_subscript_matches_einsum(monkeypatch):
    subscripts = sorted(set(EINSUM_SUBSCRIPTS) | set(TERM_SUBSCRIPTS) | recorded_subscripts(monkeypatch))
    # Ranks 1 to 4 and the anchor derivative of a scalar, a matrix and a connection.
    assert {"ab,b->a", "abc,b,c->a", "abcd,b,c,d->a", "bi,i->b", "bi,iac->bac", "bi,iacd->bacd"} <= set(subscripts)
    rng = random.Random(13)
    for subscript in subscripts:
        for _ in range(3):
            agrees_with_einsum(subscript, random_operands(rng, subscript))


def test_cancellation_drops_the_entry():
    x1 = ScalarField.coordinate(1, COORDS)
    a = store([[x1, x1], [x1, -x1]], COORDS)
    ones = store([x1, x1], COORDS)
    out = contract("ab,b->a", a, ones)
    assert out.entries == {(0,): x1 * x1 + x1 * x1}
    agrees_with_einsum("ab,b->a", [a, ones])


def test_an_empty_axis_sums_to_the_zero_store():
    # A point base: the anchor has no coordinate axis.
    anchor = Components((3, 0), COORDS)
    partials = Components((0, 2, 2), COORDS)
    out = contract("bi,iac->bac", anchor, partials)
    assert out.shape == (3, 2, 2) and out.is_zero


@pytest.mark.parametrize(
    "subscripts, shapes",
    [("ab,bc", [(2, 2), (2, 2)]), ("ab->ba", [(2, 2), (2, 2)]), ("ab,b->a", [(2, 2), (3,)]),
     ("ab->aa", [(2, 2)]), ("ab->c", [(2, 2)]), ("abc->a", [(2, 2)]), ("aa->a", [(2, 2)]),
     ("bi,i...->b...", [(2, 2), (2, 3, 3, 3)])],
)  # fmt: skip
def test_bad_subscripts_are_refused(subscripts, shapes):
    with pytest.raises(ValueError):
        contract(subscripts, *[Components(shape, COORDS) for shape in shapes])


# -- contract_sum against the per-product-normalising join ----------------------

TERM_SHAPES = {
    "ab,bc->ac": ((2, 3), (3, 2)),
    "bc,ab->ac": ((3, 2), (2, 3)),
    "ba->ab": ((2, 2),),
    "ab->ab": ((2, 2),),
    "abc,b,c->a": ((2, 2, 2), (2,), (2,)),
    "ab,b->a": ((2, 2), (2,)),
    "ab->a": ((2, 3),),
}


def rational_store(rng, shape, density):
    """Entries over four denominators, so that products and sums meet equal,
    distinct and repeated denominators."""
    x1, x2 = (ScalarField.coordinate(i, COORDS) for i in (1, 2))
    dens = [ScalarField.constant(1, COORDS), x2 + 2, x1 - 1, x1 * x2 + 3]
    entries = {}
    for idx in itertools.product(*map(range, shape)):
        if rng.random() < density:
            c = ScalarField.constant(Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3)), COORDS)
            numer = rng.choice((c, c * x1 + 1, x2 * x2 - c))
            entries[idx] = numer / rng.choice(dens)
    return Components(shape, COORDS, {i: v for i, v in entries.items() if not v.is_zero})


def assert_same_components(got, expected):
    assert got.shape == expected.shape
    assert [str(x) for x in dense(got).flat] == [str(x) for x in dense(expected).flat]
    assert all(not value.is_zero for value in got.entries.values())


def test_contract_sum_matches_the_normalising_join_on_signed_sums():
    rng = random.Random(15)
    # Each group's terms give one output shape: (2, 2) and (2,).
    groups = [("ab,bc->ac", "bc,ab->ac", "ba->ab", "ab->ab"), ("abc,b,c->a", "ab,b->a", "ab->a")]
    for _ in range(40):
        group = rng.choice(groups)
        terms = []
        for _ in range(rng.randint(1, 4)):
            subscripts = rng.choice(group)
            density = rng.choice((0.3, 0.7, 1.0))
            operands = [rational_store(rng, shape, density) for shape in TERM_SHAPES[subscripts]]
            coeff = rng.choice((1, -1, 2, Fraction(-1, 2), Fraction(3, 4)))
            terms.append((coeff, subscripts, *operands))
        assert_same_components(contract_sum(*terms), oracle_contract.signed_sum(*terms))


def test_terms_that_cancel_drop_every_entry_without_a_gcd(monkeypatch):
    rng = random.Random(7)
    x, y = rational_store(rng, (2, 3), 1.0), rational_store(rng, (3, 2), 1.0)
    square, half = rational_store(rng, (3, 3), 1.0), Fraction(1, 2)
    assert any(not v.frac.denom.is_one for v in x.entries.values())
    calls = count_cancels(monkeypatch)
    # The same product written twice with its operands swapped, and a
    # transpose of a transpose: every numerator sums to zero.
    out = contract_sum((1, "ab,bc->ac", x, y), (-1, "bc,ab->ac", y, x))
    assert out.shape == (2, 2) and out.is_zero
    swap = contract_sum((half, "ab->ba", square), (half, "ba->ab", square), (-1, "ab->ba", square))
    assert swap.is_zero
    assert calls == []


def test_a_lone_term_keeps_its_field():
    rng = random.Random(3)
    x = rational_store(rng, (2, 2), 1.0)
    out = contract_sum((1, "ab->ba", x))
    assert all(out.entries[b, a] is value for (a, b), value in x.entries.items())
    # A term with no nonzero product leaves every entry lone.
    negated = contract_sum((-1, "ab->ab", x), (Fraction(1, 3), "ab,bc->ac", x, Components((2, 2), COORDS)))
    assert_same_components(negated, oracle_contract.signed_sum((-1, "ab->ab", x)))


def test_shared_and_distinct_denominators_are_cancelled_once_per_entry(monkeypatch):
    x1, x2 = (ScalarField.coordinate(i, COORDS) for i in (1, 2))
    shared, other, zero = x2 + 2, x1 - 1, ScalarField.constant(0, COORDS)
    # Entry 0: two terms over one denominator that sum to a constant;
    # entry 1: terms over distinct denominators; entry 2: one lone term.
    u = store([(x1 + 1) / shared, x1 / shared, x2 / other], COORDS)
    v = store([(2 * x2 + 3 - x1) / shared, x2 / other, zero], COORDS)
    calls = count_cancels(monkeypatch)
    got = contract_sum((1, "a->a", u), (1, "a->a", v))
    assert len(calls) == 2
    assert_same_components(got, oracle_contract.signed_sum((1, "a->a", u), (1, "a->a", v)))
    assert str(got[0]) == "2" and got[2] is u[2]


def test_contract_sum_refuses_terms_of_different_shapes():
    with pytest.raises(ValueError):
        contract_sum((1, "ab->ab", Components((2, 2), COORDS)), (1, "a->a", Components((2,), COORDS)))
