"""The contraction kernel before products and sums were left unreduced.

Oracle for ``tensor.contract_sum``: the same hash join on the nonzero entries
of ``Components`` stores, but every product and every partial sum is a
``ScalarField`` operation, normalised on its own.  ``signed_sum`` adds the
terms of a signed sum one contraction at a time, entry by entry.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from leibniz_geo import ScalarField
from leibniz_geo.tensor import Components, _getter, _plan


def _sums(terms):
    """{index: the sum of the values given for it} for (index, value) terms, zero sums dropped."""
    entries = {}
    for idx, value in terms:
        prev = entries.get(idx)
        entries[idx] = value if prev is None else prev + value
    return {i: v for i, v in entries.items() if not v.is_zero}


def _join(bound, rows, labels, other, keep):
    """Multiply rows (keyed by the labels ``bound``) with other's entries on their
    shared labels, then sum over the labels not in ``keep``."""
    shared = [label for label in labels if label in bound]
    new = "".join(label for label in labels if label not in bound)
    index = {}
    key_other, ext_other = _getter([labels.index(s) for s in shared]), _getter([labels.index(n) for n in new])
    for idx, value in other.items():
        index.setdefault(key_other(idx), []).append((ext_other(idx), value))
    joined = bound + new
    kept = "".join(label for label in joined if label in keep)
    key_rows, project = _getter([bound.index(s) for s in shared]), _getter([joined.index(k) for k in kept])
    products = (
        (project(idx + ext), value * factor)
        for idx, value in rows.items()
        for ext, factor in index.get(key_rows(idx), ())
    )
    return kept, _sums(products)


def contract(subscripts, *operands):
    """numpy-einsum contraction of Components, each product and sum normalised."""
    inputs, output = _plan(subscripts, tuple(len(op.shape) for op in operands))
    sizes = {}
    for labels, operand in zip(inputs, operands):
        for label, n in zip(labels, operand.shape):
            if sizes.setdefault(label, n) != n:
                raise ValueError(f"label {label!r} spans axes of sizes {sizes[label]} and {n}")
    shape = tuple(sizes[label] for label in output)
    bound, rows = inputs[0], operands[0].entries
    for k in range(1, len(operands)):
        keep = set(output).union(*inputs[k + 1 :])
        bound, rows = _join(bound, rows, inputs[k], operands[k].entries, keep)
    if bound != output:
        order = _getter([bound.index(label) for label in output])
        rows = _sums((order(idx), value) for idx, value in rows.items())
    return Components(shape, operands[0].coords, rows)


def _merge(a, b, op, alone):
    """op entrywise; ``alone`` maps an entry of b that a lacks."""
    entries = dict(a.entries)
    for idx, value in b.entries.items():
        mine = entries.get(idx)
        if mine is None:
            entries[idx] = alone(value)
            continue
        total = op(mine, value)
        if total.is_zero:
            del entries[idx]
        else:
            entries[idx] = total
    return Components(a.shape, a.coords, entries)


def signed_sum(*terms):
    """The Components of sum coeff * contract(subscripts, *operands) over the terms."""
    total = None
    for coeff, subscripts, *operands in terms:
        out = contract(subscripts, *operands)
        factor = ScalarField.constant(Fraction(coeff), out.coords)
        out = Components(out.shape, out.coords, _sums((i, v * factor) for i, v in out.entries.items()))
        total = out if total is None else _merge(total, out, operator.add, lambda value: value)
    return total
