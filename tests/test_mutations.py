"""Every tabulated constant that an ECR chain reads can fail a row: flipping
the unit of one of its `DELTA_IV_EXPECTED` entries, or of its
`epsilon_factor`, fails a row of the chain's suite at the suite's smallest
grid (n = 2, q = 3, where w0(-1) = -1, so the flip changes the sign of the
weight).  The row of the pair is the one that fails; the other pair's row of
the same suite still passes.  Every pair of `DELTA_IV_EXPECTED` has a chain:
`GL_SORAM`'s weights are read by the GL lift chain.

The other tables fail their own rows at their suites' smallest arguments: a
`DISC_TABLE` entry shifted by 1/2 fails `weyl_disc` at (n, p) = (2, 5), and an
`ETA_CLOSED` entry with its sign flipped fails `delta_iv_closed` at n = 2,
p = 3.  A wrong zeta in the packet map (negated, doubled, or without its
q^(-1/2)) fails `ecr_gl_lift` at n = 2, q = 3, and a base value
`characters.zeta_unit` of 1 on every kind fails every ECR row there: the
packet map's Gauss ratio is then +-i, not a sign.  `char_oracle` cannot see
that one, since both character routes read the same base value.  A
`swan_closed_values` entry
shifted by 1/2 fails `swan_artin` at (p, e, n') = (3, 1, 2), while
`ramification_jumps` still passes.

The brute-force character route's count tables fail `char_oracle` rows at
n = 2, q <= 7 when broken: a fold that ignores a fails every kind, a kappa = 0
table read at kappa = 1 fails the kinds with kappa, a dropped w0 sign fails
twisted GL, and a phi-coset histogram built at a = 1 fails the kinds with a
phi coset."""

import dataclasses
from fractions import Fraction

import pytest

from endolab import characters, conductors, endoscopy, suites
from endolab.endoscopy import DELTA_IV_EXPECTED, ETA_CLOSED, Pair
from endolab.families import DISC_TABLE

# each pair an ECR chain reads, with its suite and the `kind=` of its rows
READERS = {
    Pair.GL_SORAM: ("ecr_gl", None),
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
    assert {pair for pair, _ in DELTA_IV_EXPECTED} == set(READERS)


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


def test_a_base_value_of_1_fails_every_ecr_row(monkeypatch):
    monkeypatch.setattr(characters, "zeta_unit", lambda kind, q: 1)
    rows = [row for suite in ("ecr_ram", "ecr_gl", "ecr_soeven") for row in suites.SUITES[suite](**SMALLEST)]
    assert {row.suite for row in rows} == {"ecr_ram_descent", "ecr_gl_lift", "ecr_so_even"}
    assert len(rows) == 4 and not any(row.passed for row in rows)


@pytest.mark.parametrize("entry", ["big", "linear_nontrivial"])
def test_a_shifted_swan_entry_fails_swan_artin(monkeypatch, entry):
    real = conductors.swan_closed_values

    def shifted(p, e, nprime):
        closed = real(p, e, nprime)
        return {**closed, entry: closed[entry] + Fraction(1, 2)}

    monkeypatch.setattr(conductors, "swan_closed_values", shifted)
    assert _verdicts("conductor", cases=((3, 1, 2),)) == {"ramification_jumps": True, "swan_artin": False}


CHAR_SMALL = dict(ns=(2,), qs=(3, 5, 7), n_random=0)


def _char_failures():
    """The kinds of the failing char_oracle rows over the family elements at
    n = 2, q <= 7."""
    return {row.parameters.split()[0] for row in suites.char_oracle_suite(**CHAR_SMALL) if not row.passed}


def test_a_fold_that_ignores_a_fails_char_oracle(monkeypatch):
    fold = characters._fold
    monkeypatch.setattr(characters, "_fold", lambda table, a: fold(table, 1))
    assert _char_failures() == {"group=sp", "group=so_ram", "group=so_spl", "group=so_ur", "group=gl_theta"}


def test_a_count_table_reused_across_kappa_fails_char_oracle(monkeypatch):
    """kappa = 1 reads the kappa = 0 table: the kinds with kappa fail, the
    others still pass."""
    table = characters._count_table
    monkeypatch.setattr(
        characters, "_count_table", lambda params, el, hist: table(dataclasses.replace(params, kappa=0), el, hist)
    )
    assert _char_failures() == {"group=sp", "group=so_spl", "group=so_ur"}


def test_a_phi_coset_histogram_read_at_a_1_fails_the_phi_coset_kinds(monkeypatch):
    """Every histogram is built at a = 1: the plain coset's reads no
    parameter and still passes, the phi cosets' index sets read a and fail."""
    histogram = characters._histogram
    monkeypatch.setattr(characters, "_histogram", lambda params, el: histogram(dataclasses.replace(params, a=1), el))
    assert _char_failures() == {"group=so_spl", "group=so_ur", "group=gl_theta"}


def test_a_dropped_w0_sign_fails_the_twisted_gl_rows(monkeypatch):
    monkeypatch.setattr(characters, "_w0_signs", lambda p: [None] + [1] * (p - 1))
    assert _char_failures() == {"group=gl_theta"}
