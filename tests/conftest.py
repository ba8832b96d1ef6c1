"""Helpers shared by several test modules."""

import pytest

from endolab.padic import LocalElem


def _tau(x):
    """The automorphism phi -> -phi of a tower element (the generator of the
    tower over its index-2 subtower): negate the odd-degree digits."""
    if x.is_zero():
        return x
    store = x.tower.store
    coeffs = tuple(c if (i + x.shift) % 2 == 0 else (-c) % store for i, c in enumerate(x.unit))
    return LocalElem(x.tower, x.shift, coeffs, x.rprec)


@pytest.fixture
def tau():
    return _tau
