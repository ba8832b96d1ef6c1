"""Every tabulated constant that an ECR chain reads can fail a row: flipping
the unit of one of its `DELTA_IV_EXPECTED` entries, or of its
`epsilon_factor`, fails a row of the chain's suite at the suite's smallest
grid (n = 2, q = 3, where w0(-1) = -1, so the flip changes the sign of the
weight).  The row of the pair is the one that fails; the other pair's row of
the same suite still passes.

`GL_SORAM` is read by no ECR chain: its entries reach only the transfer
rows."""

import dataclasses

import pytest

from endolab import endoscopy, suites
from endolab.endoscopy import DELTA_IV_EXPECTED, Pair

# each pair an ECR chain reads, with its suite and the `kind=` of its rows
READERS = {
    Pair.SP_SORAM: ("ecr_ram", None),
    Pair.SOSPL_H: ("ecr_soeven", "so_spl"),
    Pair.SOUR_H: ("ecr_soeven", "so_ur"),
}
SMALLEST = dict(ns=(2,), qs=(3,))


def _flip(value):
    return dataclasses.replace(value, unit=-value.unit)


def _assert_only_its_rows_fail(pair):
    suite, kind = READERS[pair]
    rows = suites.SUITES[suite](**SMALLEST)
    failed = {not row.passed for row in rows if kind is None or f"kind={kind} " in row.parameters}
    others = [row.passed for row in rows if kind is not None and f"kind={kind} " not in row.parameters]
    assert failed == {True}, pair
    assert all(others), pair


def test_every_read_pair_is_listed():
    assert {pair for pair, _ in DELTA_IV_EXPECTED} - set(READERS) == {Pair.GL_SORAM}


@pytest.mark.parametrize(
    "key", [key for key in DELTA_IV_EXPECTED if key[0] in READERS], ids=lambda key: f"{key[0].value}-{key[1]}"
)
def test_a_flipped_delta_iv_entry_fails_a_row(monkeypatch, key):
    monkeypatch.setitem(DELTA_IV_EXPECTED, key, _flip(DELTA_IV_EXPECTED[key]))
    _assert_only_its_rows_fail(key[0])


@pytest.mark.parametrize("pair", list(READERS), ids=lambda pair: pair.value)
def test_a_flipped_epsilon_factor_fails_a_row(monkeypatch, pair):
    real = endoscopy.epsilon_factor
    monkeypatch.setattr(endoscopy, "epsilon_factor", lambda p: _flip(real(p)) if p is pair else real(p))
    _assert_only_its_rows_fail(pair)
