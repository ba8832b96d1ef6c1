"""Every tabulated constant that an ECR chain reads can fail a row: flipping
the unit of one of its `DELTA_IV_EXPECTED` entries, or of its
`epsilon_factor`, fails a row of the chain's suite at the suite's smallest
grid (n = 2, q = 3, where w0(-1) = -1, so the flip changes the sign of the
weight).  The row of the pair is the one that fails; the other pair's row of
the same suite still passes.

`GL_SORAM` is read by no ECR chain: its entries reach only the transfer
rows.

The other tables fail their own rows at their suites' smallest arguments: a
`TRANSFER_EXPECTED` entry with its sign flipped fails `transfer_symbolic`, a
`DISC_TABLE` entry shifted by 1/2 fails `weyl_disc` at (n, p) = (2, 5), and an
`ETA_CLOSED` entry with its sign flipped fails `delta_iv_closed` at n = 2,
p = 3.  A wrong zeta in the packet map (negated, doubled, or without its
q^(-1/2)) fails `ecr_gl_lift` at n = 2, q = 3."""

import dataclasses
from fractions import Fraction

import pytest

from endolab import endoscopy, suites
from endolab.endoscopy import DELTA_IV_EXPECTED, ETA_CLOSED, TRANSFER_EXPECTED, Pair
from endolab.families import DISC_TABLE

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


def _verdicts(suite, **kwargs):
    """{row suite: pass} of one run of a suite."""
    return {row.suite: row.passed for row in suites.SUITES[suite](**kwargs)}


TRANSFER_SMALLEST = dict(ns=(2,), ps=(3,), direct=())


@pytest.mark.parametrize("key", list(TRANSFER_EXPECTED), ids=lambda key: f"{key[0].value}-{key[1]}")
def test_a_flipped_transfer_entry_fails_transfer_symbolic(monkeypatch, key):
    value = TRANSFER_EXPECTED[key]
    monkeypatch.setitem(TRANSFER_EXPECTED, key, dataclasses.replace(value, sign=-value.sign))
    assert _verdicts("transfer", **TRANSFER_SMALLEST) == {"delta_iv_closed": True, "transfer_symbolic": False}


@pytest.mark.parametrize("key", list(DISC_TABLE), ids=lambda key: f"{key[0].value}-{key[1]}")
def test_a_shifted_disc_entry_fails_weyl_disc(monkeypatch, key):
    closed = DISC_TABLE[key]
    monkeypatch.setitem(DISC_TABLE, key, lambda n: closed(n) + Fraction(1, 2))
    assert _verdicts("disc", cases=((2, 5),)) == {"weyl_disc": False}


@pytest.mark.parametrize("kind", list(ETA_CLOSED), ids=lambda kind: kind.value)
def test_a_flipped_eta_entry_fails_delta_iv_closed(monkeypatch, kind):
    closed = ETA_CLOSED[kind]
    monkeypatch.setitem(ETA_CLOSED, kind, lambda n: -closed(n))
    assert not _verdicts("transfer", **TRANSFER_SMALLEST)["delta_iv_closed"]


@pytest.mark.parametrize(
    "wrong",
    [lambda zeta, q: -zeta, lambda zeta, q: 2 * zeta, lambda zeta, q: zeta * q**0.5],
    ids=["negated", "doubled", "without q^(-1/2)"],
)
def test_a_wrong_zeta_fails_the_gl_lift(monkeypatch, wrong):
    """The GL chain does not restate zeta^2 = w0(-1); its two lifting
    identities still see a wrong zeta."""
    real = endoscopy.packet_solution

    def packet_solution(pair, n, p, xi, a):
        sol = real(pair, n, p, xi, a)
        return dataclasses.replace(sol, gl_zeta=wrong(sol.gl_zeta, p))

    monkeypatch.setattr(endoscopy, "packet_solution", packet_solution)
    assert _verdicts("ecr_gl", **SMALLEST) == {"ecr_gl_lift": False}
