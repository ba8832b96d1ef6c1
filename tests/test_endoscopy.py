import dataclasses
from fractions import Fraction
from functools import partial

import pytest

from endolab import characters, endoscopy
from endolab.endoscopy import (
    DELTA_IV_EXPECTED,
    PAIR_GROUP,
    Pair,
    TRANSFER_EXPECTED,
    TransferValue,
    delta4,
    delta_iv_walds,
    ecr_gl_lift_verify,
    ecr_ram_descent_verify,
    ETA_CLOSED,
    epsilon_factor,
    norm_family_check,
    packet_solution,
    pair_variants,
    pol_products,
    sgn_at,
    so_even_coset_verify,
    so_even_packet_verify,
    transfer_factor,
    walds_family,
)
from endolab.errors import IdentityFailed, IncompatibleParams, InvalidParams, InvalidU, UnknownPair
from endolab.families import DISC_TABLE, nu_of_u
from endolab.groups import GroupKind
from endolab.residue import make_field
from endolab.sums import gauss_sum


def _eta_recipe(kind, n):
    """The eta invariant by the principal nilpotent recipe: raise N_G to the
    power that leaves one nonzero pairing with the form matrix J, and read off
    that entry."""
    if kind in (GroupKind.GL, GroupKind.TWISTED_GL, GroupKind.SP):
        size = n if kind is GroupKind.GL else 2 * n
        nil = [[int(j == i + 1) for j in range(size)] for i in range(size)]
        power = size - 1
        form = [[(-1) ** i if j == size - 1 - i else 0 for j in range(size)] for i in range(size)]
    else:  # SO_SPL, SO_UR
        size = 2 * n + 2
        nil = [[0] * size for _ in range(size)]
        for i in range(n - 1):
            nil[i][i + 1] = 1
        # the branch-node signs are pinned so the recipe reproduces the
        # closed eta table (the splitting is only determined up to signs)
        if kind is GroupKind.SO_SPL:
            nil[n - 1][n], nil[n - 1][n + 1], nil[n][n + 2], nil[n + 1][n + 2] = 1, -1, 1, -1
        else:
            nil[n - 1][n], nil[n][n + 2] = 2, 2
        for i in range(n + 2, size - 1):
            nil[i][i + 1] = -1
        power = size - 2
        # the unramified group's anisotropic plane (rows n, n+1) has 1 at
        # (n, n); its -eps at (n+1, n+1) never meets the power of N
        plane = (n, n + 1) if kind is GroupKind.SO_UR else ()
        form = [[int(j == size - 1 - i and i not in plane) for j in range(size)] for i in range(size)]
        if plane:
            form[n][n] = 1
    acc = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(power):
        acc = [[sum(acc[i][k] * nil[k][j] for k in range(size)) for j in range(size)] for i in range(size)]
    paired = [
        sum(form[i][k] * acc[k][j] for k in range(size)) for i in range(size) for j in range(size)
    ]
    nonzero = [v for v in paired if v]
    assert len(nonzero) == 1, "eta form is not rank one"
    return nonzero[0]


def test_eta_closed_values():
    values = {
        (GroupKind.GL, 5): 1,
        (GroupKind.GL, 4): -1,
        (GroupKind.SP, 2): -1,
        (GroupKind.SP, 3): -1,
        (GroupKind.SO_SPL, 2): -2,
        (GroupKind.SO_SPL, 3): 2,
        (GroupKind.SO_UR, 2): -4,
        (GroupKind.SO_UR, 3): 4,
    }
    for (kind, n), value in values.items():
        assert _eta_recipe(kind, n) == value, (kind, n)
        if kind in ETA_CLOSED:
            assert ETA_CLOSED[kind](n) == value, (kind, n)
    # the table keeps only the kinds delta_iv_walds reads
    assert set(ETA_CLOSED) == {GroupKind.SO_SPL, GroupKind.SO_UR}


def test_epsilon_table():
    # at p = 7, -1 is not a square, so w0 sees the sign of each tabulated unit
    for p in (5, 7):
        k = make_field(p)
        G = gauss_sum(k.omega0(), k)
        assert epsilon_factor(Pair.GL_ODD_SP).evaluate(k) == 1
        assert abs(epsilon_factor(Pair.SP_SORAM).evaluate(k) - p**0.5 / G) < 1e-9, p
        assert abs(epsilon_factor(Pair.GL_SORAM).evaluate(k) - p**0.5 / G) < 1e-9, p
        w0m1 = k.omega0()(k.coerce(-1))
        assert abs(epsilon_factor(Pair.SOSPL_H).evaluate(k) - w0m1) < 1e-9, p
        assert abs(epsilon_factor(Pair.SOUR_H).evaluate(k) + w0m1) < 1e-9, p


def test_transfer_table_at_a_nonsquare_minus_one():
    """Every tabulated transfer factor at p = 7, where -1 is not a square,
    for each rank and every unit u."""
    k = make_field(7)
    for (pair, var), expect in TRANSFER_EXPECTED.items():
        for n in (2, 3):
            for u in range(1, 7):
                assert transfer_factor(pair, 7, n, u, var).symbolic_eq(expect, k), (pair, var, n, u)


def test_transfer_value_canonicalization():
    k = make_field(7)
    # G^2 = q w0(-1): gauss exponent 2 collapses into a q-power and a sign
    tv = TransferValue(gauss=2)
    assert tv.symbolic_eq(TransferValue(unit=-1, halfq=2), k)
    tv_inv = TransferValue(gauss=-1)
    val = tv_inv.evaluate(k)
    assert abs(val - 1 / gauss_sum(k.omega0(), k)) < 1e-9


def test_pol_product_sign_relation():
    """The minus-family product is exactly phi^{2n} times the plus one."""
    for p, n, u in ((5, 2, 1), (7, 2, 3), (5, 3, 2)):
        plus = pol_products(p, n, u, "+")
        minus = pol_products(p, n, u, "-")
        assert minus * walds_family(p, n, u).tower.phi(2 * n) == plus


def test_pol_product_direct_vs_closed_mod_norms():
    # p = 1 mod 2n so the direct root product is available
    for p, n in ((5, 2), (13, 2), (7, 3)):
        for u in (1, 2):
            data = walds_family(p, n, u)
            for sign in ("+", "-"):
                closed = pol_products(p, n, u, sign)
                direct = pol_products(p, n, u, sign, direct=True)
                ratio = direct / closed
                assert sgn_at(data, ratio) == 1


@pytest.mark.parametrize("direct", [False, True])
def test_pol_products_refuses_a_sign_other_than_plus_or_minus(direct):
    """Any other string once read as the minus family on the closed route
    and as the plus family on the direct one (p = 13, n = 2)."""
    for sign in ("x", "plus", "", "+-"):
        with pytest.raises(InvalidParams):
            pol_products(13, 2, 1, sign, direct)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("n", [2, 3])
def test_delta_iv_closed_constants(p, n):
    k = make_field(p)
    for pair in (Pair.GL_SORAM, Pair.SP_SORAM, Pair.SOSPL_H, Pair.SOUR_H):
        variants = ("plus", "minus") + (
            ("phi_coset",) if pair in (Pair.SOSPL_H, Pair.SOUR_H) else ()
        )
        for var in variants:
            expect = DELTA_IV_EXPECTED[(pair, var)].evaluate(k)
            for u in range(1, p):
                assert abs(delta_iv_walds(pair, p, n, u, var) - expect) < 1e-9


def test_delta_iv_direct_route():
    k = make_field(5)
    for pair in (Pair.GL_SORAM, Pair.SP_SORAM, Pair.SOSPL_H, Pair.SOUR_H):
        variants = ("plus", "minus") + (
            ("phi_coset",) if pair in (Pair.SOSPL_H, Pair.SOUR_H) else ()
        )
        for var in variants:
            expect = DELTA_IV_EXPECTED[(pair, var)].evaluate(k)
            for u in (1, 2):
                got = delta_iv_walds(pair, 5, 2, u, var, direct=True)
                assert abs(got - expect) < 1e-9


def test_odd_pair_is_trivial():
    assert delta_iv_walds(Pair.GL_ODD_SP, 5, 2, 1) == 1
    k = make_field(5)
    assert transfer_factor(Pair.GL_ODD_SP, 5, 2, 1).symbolic_eq(TransferValue(), k)
    # the odd pair has one family, so no minus element
    assert pair_variants(Pair.GL_ODD_SP) == ("plus",)
    with pytest.raises(InvalidU):
        delta_iv_walds(Pair.GL_ODD_SP, 5, 2, 1, "minus")


def test_delta_iv_builds_only_the_product_it_reads(monkeypatch):
    signs = []

    def counting(p, n, u, sign, direct=False):
        signs.append(sign)
        return pol_products(p, n, u, sign, direct)

    monkeypatch.setattr(endoscopy, "pol_products", counting)
    for pair in (Pair.GL_SORAM, Pair.SP_SORAM, Pair.SOSPL_H, Pair.SOUR_H):
        for var in pair_variants(pair):
            signs.clear()
            delta_iv_walds(pair, 5, 2, 1, var)
            assert signs == ["-" if var == "minus" else "+"]


def test_delta4_values():
    assert delta4(Pair.SP_SORAM, 2).halfq == -1
    assert delta4(Pair.GL_SORAM, 2, "plus").halfq == -1
    assert delta4(Pair.GL_SORAM, 2, "minus").halfq == 0
    assert delta4(Pair.SOSPL_H, 2, "plus").halfq == -2
    assert delta4(Pair.SOSPL_H, 2, "phi_coset").halfq == 0


def test_delta4_rejects_non_half_integral_ratio(monkeypatch):
    """The invariant is a raised error, so it holds under python -O too."""
    monkeypatch.setitem(DISC_TABLE, (GroupKind.SP, "plus"), lambda n: Fraction(n, 3))
    with pytest.raises(IncompatibleParams):
        delta4(Pair.SP_SORAM, 2)


def test_transfer_factors_symbolic():
    k = make_field(5)
    for (pair, var), expect in TRANSFER_EXPECTED.items():
        got = transfer_factor(pair, 5, 2, 1, var)
        assert got.symbolic_eq(expect, k), (pair, var)


def test_transfer_u_independent():
    k = make_field(7)
    for pair in (Pair.SP_SORAM, Pair.SOSPL_H):
        vals = {
            transfer_factor(pair, 7, 2, u, "plus").canonical(k) for u in range(1, 7)
        }
        assert len(vals) == 1


def test_nu_mu():
    assert nu_of_u(make_field(3), 2, 1) == 1  # -1 is not a square mod 3
    for n in (2, 3):
        for p in (3, 5, 7):
            k = make_field(p)
            a0 = (pow(-1, n - 1, p)) % p
            assert nu_of_u(k, n, a0) == 0
            assert nu_of_u(k, n, (a0 * k.eps.a) % p) == 1


@pytest.mark.parametrize("p", [3, 7])
def test_ecr_ram_descent(p):
    k = make_field(p)
    w0m1 = 1 if k.dlog(k.coerce(-1)) % 2 == 0 else -1
    for xi in (1, -1):
        for a in range(1, p):
            sol = ecr_ram_descent_verify(2, p, xi, a)
            assert sol.xi_prime == xi * w0m1
            expect_sq = (pow(-1, 1, p) * k.eps.a ** sol.nu_mu * 4 * a) % p
            assert sol.a_prime_sq == expect_sq
            assert k.coerce(sol.a_prime_sq).is_square()


def test_ecr_gl_lift():
    for p in (3, 5):
        k = make_field(p)
        w0 = k.omega0()
        G = gauss_sum(w0, k)
        for xi in (1, -1):
            for a in range(1, p):
                sol = ecr_gl_lift_verify(2, p, xi, a)
                assert sol.gl_b == (4 * a) % p
                expect = xi * p ** (-0.5) * w0(k.coerce(-1)) * G
                assert abs(sol.gl_zeta - expect) < 1e-9
                assert abs(sol.gl_zeta**2 - w0(k.coerce(-1))) < 1e-9


# each chain with the pair whose packet map it reads
CHAINS = (
    (Pair.SP_SORAM, ecr_ram_descent_verify),
    (Pair.SP_SORAM, ecr_gl_lift_verify),
    (Pair.SOSPL_H, partial(so_even_packet_verify, GroupKind.SO_SPL)),
    (Pair.SOUR_H, partial(so_even_packet_verify, GroupKind.SO_UR)),
)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_packet_map(p, n):
    """The packet map sends the G-side grid one to one onto the SO_ram
    parameters (xi' = +-1, a'^2 a nonzero square, nu in {0, 1}), with
    zeta^2 = w0(-1); every chain returns exactly its value."""
    k = make_field(p)
    w0m1 = k.omega0()(k.coerce(-1))
    grid = [(xi, a) for xi in (1, -1) for a in range(1, p)]
    squares = {(x * x).a for x in k.units()}
    for pair in (Pair.SP_SORAM, Pair.SOSPL_H, Pair.SOUR_H):
        sols = [packet_solution(pair, n, p, xi, a) for xi, a in grid]
        h_side = {(s.xi_prime, s.a_prime_sq, s.nu_mu) for s in sols}
        # as many images as cells, and each one an SO_ram parameter
        assert len(h_side) == len(grid)
        assert h_side == {(xi, sq, nu) for xi in (1, -1) for sq in squares for nu in (0, 1)}
        for sol in sols:
            assert abs(sol.gl_zeta**2 - w0m1) < 1e-12
    for pair, chain in CHAINS:
        for xi, a in grid:
            assert chain(n, p, xi, a) == packet_solution(pair, n, p, xi, a)


def test_packet_map_refuses_other_pairs_and_parameters():
    for pair in (Pair.GL_ODD_SP, Pair.GL_SORAM):
        with pytest.raises(UnknownPair):
            packet_solution(pair, 2, 5, 1, 1)
    for xi, a in ((0, 1), (2, 1), (1, 0), (1, 5)):
        with pytest.raises(InvalidParams):
            packet_solution(Pair.SP_SORAM, 2, 5, xi, a)
    with pytest.raises(UnknownPair):
        so_even_packet_verify(GroupKind.SP, 2, 5, 1, 1)


@pytest.mark.parametrize("kind", [GroupKind.SO_SPL, GroupKind.SO_UR])
@pytest.mark.parametrize("p", [3, 5])
def test_so_even_zeta_minus_branch_can_fail(monkeypatch, kind, p):
    """A closed form that ignores zeta breaks the zeta = -1 coset identity."""
    real = characters.char_closed_form

    def zeta_blind(params, desc):
        return real(dataclasses.replace(params, zeta=1), desc)

    monkeypatch.setattr(characters, "char_closed_form", zeta_blind)
    pair = next(pair for pair in (Pair.SOSPL_H, Pair.SOUR_H) if PAIR_GROUP[pair] is kind)
    for nu in (0, 1):
        a = next(a for a in range(1, p) if packet_solution(pair, 2, p, 1, a).nu_mu == nu)
        with pytest.raises(IdentityFailed, match=r"\(zeta=-1\)"):
            so_even_coset_verify(kind, 2, p, a)


def test_norm_family_checks():
    for p in (5, 7):
        for u in (1, 2):
            assert norm_family_check(Pair.GL_SORAM, p, 2, u)
            assert norm_family_check(Pair.SP_SORAM, p, 2, u)
            assert norm_family_check(Pair.GL_ODD_SP, p, 2, u)
