"""Differential tests: ``tensor.contract`` against ``np.einsum`` on object arrays.

numpy is the oracle here and only here: the engine's kernel is a hash join on
the nonzero entries of sparse ``Components`` stores, and each subscript string
the package passes (read from the source and recorded from check-all runs on
the bundled models), together with the einsum strings the kernel replaced
(ranks 1 to 4), must give the same component strings as ``np.einsum`` on
seeded random sparse arrays of ScalarField.  '...' and repeated labels are
refused: every term names each axis of its operand once.
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
from leibniz_geo.tensor import Components, contract
from conftest import dense, store

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


def source_subscripts():
    """The literal subscripts of every contract call in the package source."""
    found = set()
    for path in (ROOT / "src" / "leibniz_geo").glob("*.py"):
        found.update(re.findall(r'contract\(\s*"([^"]+)"', path.read_text()))
    return found


def recorded_subscripts(monkeypatch):
    """Every subscript string the package passes while checking the bundled models."""
    seen = set()
    original = leibniz_geo.tensor.contract

    def recording(subscripts, *operands):
        seen.add(subscripts)
        return original(subscripts, *operands)

    for name, module in list(sys.modules.items()):
        if name.startswith("leibniz_geo.") and getattr(module, "contract", None) is original:
            monkeypatch.setattr(module, "contract", recording)
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
    assert source_subscripts() <= set(EINSUM_SUBSCRIPTS)


def test_every_subscript_matches_einsum(monkeypatch):
    subscripts = sorted(set(EINSUM_SUBSCRIPTS) | recorded_subscripts(monkeypatch))
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
