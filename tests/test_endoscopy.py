import dataclasses
from fractions import Fraction

import pytest

from endolab import characters, endoscopy
from endolab.endoscopy import (
    DELTA_IV_EXPECTED,
    Pair,
    TRANSFER_EXPECTED,
    TransferValue,
    delta4,
    delta_iv_walds,
    ecr_gl_lift_verify,
    ecr_ram_descent_verify,
    epsilon_factor,
    eta,
    norm_family_check,
    pair_variants,
    pol_products,
    sgn_at,
    so_even_packet_verify,
    transfer_factor,
    walds_family,
)
from endolab.errors import IdentityFailed, IncompatibleParams, InvalidU
from endolab.families import DISC_TABLE, nu_of_u
from endolab.groups import GroupId, GroupKind
from endolab.residue import make_field
from endolab.sums import gauss_sum


def test_eta_closed_values():
    assert eta(GroupId(GroupKind.GL, 5)) == 1
    assert eta(GroupId(GroupKind.GL, 4)) == -1
    assert eta(GroupId(GroupKind.SP, 2)) == -1
    assert eta(GroupId(GroupKind.SP, 3)) == -1
    assert eta(GroupId(GroupKind.SO_SPL, 2)) == -2
    assert eta(GroupId(GroupKind.SO_SPL, 3)) == 2
    assert eta(GroupId(GroupKind.SO_UR, 2)) == -4
    assert eta(GroupId(GroupKind.SO_UR, 3)) == 4


def test_epsilon_table():
    k = make_field(5)
    G = gauss_sum(k.omega0(), k)
    assert epsilon_factor(Pair.GL_ODD_SP).evaluate(k) == 1
    assert abs(epsilon_factor(Pair.SP_SORAM).evaluate(k) - 5**0.5 / G) < 1e-9
    assert abs(epsilon_factor(Pair.GL_SORAM).evaluate(k) - 5**0.5 / G) < 1e-9
    w0m1 = k.omega0()(k.coerce(-1))
    assert abs(epsilon_factor(Pair.SOSPL_H).evaluate(k) - w0m1) < 1e-9
    assert abs(epsilon_factor(Pair.SOUR_H).evaluate(k) + w0m1) < 1e-9


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
        data = walds_family(p, n, u)
        plus = pol_products(data, "+")
        minus = pol_products(data, "-")
        assert minus * data.tower.phi(2 * n) == plus


def test_pol_product_direct_vs_closed_mod_norms():
    # p = 1 mod 2n so the direct root product is available
    for p, n in ((5, 2), (13, 2), (7, 3)):
        for u in (1, 2):
            data = walds_family(p, n, u)
            for sign in ("+", "-"):
                closed = pol_products(data, sign)
                direct = pol_products(data, sign, direct=True)
                ratio = direct / closed
                assert sgn_at(data, ratio) == 1


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

    def counting(data, sign, direct=False):
        signs.append(sign)
        return pol_products(data, sign, direct)

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
            assert sol.genericity_sign == 1
            assert sol.xi_prime == xi * w0m1
            expect_sq = (pow(-1, 1, p) * k.eps.a ** sol.nu_mu * 4 * a) % p
            assert sol.a_prime_sq == expect_sq


def test_ecr_gl_lift():
    for p in (3, 5):
        k = make_field(p)
        w0 = k.omega0()
        G = gauss_sum(w0, k)
        for xi in (1, -1):
            for a in range(1, p):
                b, zeta, ok = ecr_gl_lift_verify(2, p, xi, a)
                assert ok and b == (4 * a) % p
                expect = xi * p ** (-0.5) * w0(k.coerce(-1)) * G
                assert abs(zeta - expect) < 1e-9
                assert abs(zeta**2 - w0(k.coerce(-1))) < 1e-9


def test_so_even_packets():
    for p in (3, 5):
        k = make_field(p)
        w0m1 = 1 if k.dlog(k.coerce(-1)) % 2 == 0 else -1
        for kind, t in ((GroupKind.SO_SPL, 0), (GroupKind.SO_UR, 1)):
            for xi_p in (1, -1):
                for a_p in (1, 2):
                    for nu in (0, 1):
                        xi, a, zetas, b, eta_lift = so_even_packet_verify(
                            kind, 2, p, xi_p, a_p, nu
                        )
                        assert xi == (-1) ** t * w0m1 * xi_p
                        expect_a = (
                            k.coerce(a_p) ** 2
                            / (k.coerce(2) ** (2 + t) * k.eps**nu)
                        ).a
                        assert a == expect_a
                        assert zetas == (1, -1)
                        assert b == ((-1) ** (2 - 1) * 2 ** (2 + t) * a) % p


@pytest.mark.parametrize("kind", [GroupKind.SO_SPL, GroupKind.SO_UR])
@pytest.mark.parametrize("p", [3, 5])
def test_so_even_zeta_minus_branch_can_fail(monkeypatch, kind, p):
    """A closed form that ignores zeta breaks the zeta = -1 coset identity."""
    real = characters.char_closed_form

    def zeta_blind(params, desc):
        return real(dataclasses.replace(params, zeta=1), desc)

    monkeypatch.setattr(characters, "char_closed_form", zeta_blind)
    for nu in (0, 1):
        with pytest.raises(IdentityFailed, match=r"\(zeta=-1\)"):
            so_even_packet_verify(kind, 2, p, 1, 1, nu)


def test_norm_family_checks():
    for p in (5, 7):
        for u in (1, 2):
            assert norm_family_check(Pair.GL_SORAM, p, 2, u)
            assert norm_family_check(Pair.SP_SORAM, p, 2, u)
            assert norm_family_check(Pair.GL_ODD_SP, p, 2, u)
