import dataclasses
from fractions import Fraction
from functools import partial

import pytest

from endolab import characters, endoscopy, families, padic
from endolab.characters import SSCParams, char_brute_force, char_closed_form, describe, family_element, zeta_unit
from endolab.endoscopy import (
    DELTA_IV_EXPECTED,
    PAIR_GROUP,
    Pair,
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
    so_even_packet_verify,
    transfer_factor,
    walds_family,
)
from endolab.errors import IdentityFailed, IncompatibleParams, InvalidParams, InvalidU, UnknownPair
from endolab.families import (
    DISC_TABLE,
    FAMILY_VARIANTS,
    _root_pair_val,
    _u_tilde,
    family_eigenvalues,
    family_tower,
    nu_of_u,
    weyl_disc_val,
)
from endolab.groups import GroupId, GroupKind
from endolab.residue import make_field
from endolab.sums import TOL, gauss_sum


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


def test_transfer_value_canonicalization():
    k = make_field(7)
    # G^2 = q w0(-1): gauss exponent 2 collapses into a q-power and a sign
    tv = TransferValue(gauss=2)
    assert tv.canonical(k) == TransferValue(unit=-1, halfq=2).canonical(k)
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
    assert transfer_factor(Pair.GL_ODD_SP, 5, 2, 1).canonical(k) == TransferValue().canonical(k)
    # the odd pair has one family, so no minus element
    assert pair_variants(Pair.GL_ODD_SP) == ("plus",)
    with pytest.raises(InvalidU):
        delta_iv_walds(Pair.GL_ODD_SP, 5, 2, 1, "minus")


@pytest.mark.parametrize("variant", ["minus", "bogus"])
def test_transfer_factor_checks_the_variant_on_every_pair(variant):
    """The odd pair's one variant is plus: the transfer factor refuses any
    other, as delta_iv_walds does, instead of returning the trivial value."""
    with pytest.raises(InvalidU):
        transfer_factor(Pair.GL_ODD_SP, 5, 2, 1, variant)
    assert transfer_factor(Pair.GL_ODD_SP, 5, 2, 1, "plus") == TransferValue()


@pytest.mark.parametrize("pair", [Pair.SOSPL_H, Pair.SOUR_H])
def test_even_orthogonal_transfer_refuses_rank_1(pair):
    """so_spl and so_ur start at rank 2, and so do their pairs: at n = 1 the
    transfer factor is refused on every variant, not evaluated."""
    for variant in pair_variants(pair):
        with pytest.raises(InvalidParams, match="rank 2"):
            transfer_factor(pair, 5, 1, 1, variant)


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
    for a in range(1, p):
        # the chain reads the xi = 1 packet; xi = -1 is read off the map
        sols = {1: ecr_ram_descent_verify(2, p, a), -1: packet_solution(Pair.SP_SORAM, 2, p, -1, a)}
        for xi, sol in sols.items():
            assert sol.xi_prime == xi * w0m1
            expect_sq = (pow(-1, 1, p) * k.eps.a ** sol.nu_mu * 4 * a) % p
            assert sol.a_prime_sq == expect_sq
            assert k.coerce(sol.a_prime_sq).is_square()


def test_ecr_gl_lift():
    for p in (3, 5):
        k = make_field(p)
        w0 = k.omega0()
        G = gauss_sum(w0, k)
        for a in range(1, p):
            sols = {1: ecr_gl_lift_verify(2, p, a), -1: packet_solution(Pair.SP_SORAM, 2, p, -1, a)}
            for xi, sol in sols.items():
                assert sol.gl_b == (4 * a) % p
                expect = xi * p ** (-0.5) * w0(k.coerce(-1)) * G
                assert sol.gl_zeta in (1, -1)
                assert abs(sol.gl_zeta * zeta_unit(GroupKind.TWISTED_GL, p) - expect) < 1e-9


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
    parameters (xi' = +-1, a'^2 a nonzero square, nu in {0, 1}), with zeta an
    int sign and (zeta zeta_unit)^2 = w0(-1); every chain returns exactly its
    xi = 1 value."""
    k = make_field(p)
    w0m1 = k.omega0()(k.coerce(-1))
    unit = zeta_unit(GroupKind.TWISTED_GL, p)
    grid = [(xi, a) for xi in (1, -1) for a in range(1, p)]
    squares = {(x * x).a for x in k.units()}
    for pair in (Pair.SP_SORAM, Pair.SOSPL_H, Pair.SOUR_H):
        sols = [packet_solution(pair, n, p, xi, a) for xi, a in grid]
        h_side = {(s.xi_prime, s.a_prime_sq, s.nu_mu) for s in sols}
        # as many images as cells, and each one an SO_ram parameter
        assert len(h_side) == len(grid)
        assert h_side == {(xi, sq, nu) for xi in (1, -1) for sq in squares for nu in (0, 1)}
        for sol in sols:
            assert type(sol.gl_zeta) is int and sol.gl_zeta in (1, -1)
            assert abs((sol.gl_zeta * unit) ** 2 - w0m1) < 1e-12
    for pair, chain in CHAINS:
        for a in range(1, p):
            assert chain(n, p, a) == packet_solution(pair, n, p, 1, a)


def test_packet_map_is_odd_in_xi():
    """xi enters the packet only through xi' and zeta, and both are odd in it,
    so each xi = -1 identity of a chain is its xi = 1 identity negated: the
    chains run at xi = 1 alone."""
    for pair in (Pair.SP_SORAM, Pair.SOSPL_H, Pair.SOUR_H):
        for n in (2, 3):
            for p in (3, 5, 7):
                for a in range(1, p):
                    plus = packet_solution(pair, n, p, 1, a)
                    negated = dataclasses.replace(plus, xi_prime=-plus.xi_prime, gl_zeta=-plus.gl_zeta)
                    assert packet_solution(pair, n, p, -1, a) == negated, (pair, n, p, a)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_gl_packet_data_feeds_the_brute_force_route(p, n):
    """The twisted-GL data (b, zeta) of every symplectic (xi, a) is a parameter
    the character routes take as it is, and both agree on it at the twisted-GL
    family elements; zeta is xi', since G(w0, psi) = zeta_unit q^(1/2)."""
    elements = [family_element(GroupKind.TWISTED_GL, n, p, u, var) for u in range(1, p) for var in ("plus", "minus")]
    for xi in (1, -1):
        for a in range(1, p):
            sol = packet_solution(Pair.SP_SORAM, n, p, xi, a)
            assert sol.gl_zeta == sol.xi_prime
            params = SSCParams(GroupId(GroupKind.TWISTED_GL, n), sol.gl_b, zeta=sol.gl_zeta)
            for el in elements:
                bf = char_brute_force(params, el).value
                assert abs(bf - char_closed_form(params, describe(el)).value) <= TOL, (xi, a, el.phi)


def test_packet_map_refuses_other_pairs_and_parameters():
    for pair in (Pair.GL_ODD_SP, Pair.GL_SORAM):
        with pytest.raises(UnknownPair):
            packet_solution(pair, 2, 5, 1, 1)
    for xi, a in ((0, 1), (2, 1), (1, 0), (1, 5)):
        with pytest.raises(InvalidParams):
            packet_solution(Pair.SP_SORAM, 2, 5, xi, a)
    with pytest.raises(UnknownPair):
        so_even_packet_verify(GroupKind.SP, 2, 5, 1)


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
            so_even_packet_verify(kind, 2, p, a)


def test_norm_family_checks(tau):
    """The family data match across the pairs: x/tau(x) = -y for the linear
    datum, y tau(y) = 1 for the orthogonal one, and the odd pair's twisted
    norm factors through the symplectic family."""
    for p in (5, 7):
        for u in (1, 2):
            data = walds_family(p, 2, u)
            assert data.x_gl / tau(data.x_gl) == -data.y
            assert data.y * tau(data.y) == data.tower.one()
            assert norm_family_check(p, 2, u)


def _exact(x):
    return (x.shift, x.unit, x.rprec)


def _root_pair_by_division(p, n, u):
    """``_root_pair_val`` with every quotient and inverse taken directly."""
    t = family_eigenvalues(p, n, u)[:n]
    one = family_tower(p, n, u).one()
    total = Fraction(0)
    for i in range(n):
        for j in range(i + 1, n):
            total += (t[i] / t[j] - one).valuation() + (t[j] / t[i] - one).valuation()
            total += (t[i] * t[j] - one).valuation() + ((t[i] * t[j]).inv() - one).valuation()
    return total


def _disc_by_division(group, p, u, variant):
    """``weyl_disc_val``'s eigenvalue route with every quotient taken directly."""
    n = group.n
    tower = family_tower(p, n, u)
    one, phi = tower.one(), tower.phi()
    eig = family_eigenvalues(p, n, u)
    if group.kind is GroupKind.TWISTED_GL:
        zeta = tower.zeta(2 * n)
        order = list(range(1, n + 1)) + list(range(2 * n, n, -1))
        s = [one + phi * zeta**j for j in order]
        if variant == "minus":
            s = [phi * zeta**j * x for j, x in zip(order, s)]
        m = 2 * n - 1
        total = sum((s[i] / s[m - i] - one).valuation() for i in range(2 * n))
        for i in range(2 * n):
            for j in range(m - i + 1, 2 * n):
                if i != j:
                    total += (one - (s[i] / s[j]) * (s[m - j] / s[m - i])).valuation()
        return total / 2
    total = _root_pair_by_division(p, n, u)
    if group.kind is GroupKind.SP:
        total += sum((x**2 - one).valuation() + (x**-2 - one).valuation() for x in eig[:n])
    elif group.kind is not GroupKind.SO_RAM:
        w = tower.pi() * tower.from_int(_u_tilde(group, p, u))
        s_tr = tower.from_int(2) * (one + w) / (one - w)
        s_tr = -s_tr if variant == "phi_coset" else s_tr
        total += sum((x * x - s_tr * x + one).valuation() - x.valuation() for x in eig)
    return total / 2


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("p", (3, 5, 7, 13))
def test_shared_inverses_equal_direct_division(p, n):
    """Every value that multiplies by a shared inverse equals the same
    expression with direct division: tower values in (shift, unit, rprec),
    the valuation sums in value (where p = 1 mod 2n makes them defined)."""
    for u in range(1, p):
        t = family_tower(p, n, u)
        one, phi, two = t.one(), t.phi(), t.from_int(2)
        data = walds_family(p, n, u)
        d = t.from_int(2 * n) * t.pi() * t.from_int(u)
        pol_den = (one - phi) ** (2 * n - 1) * (one + phi)
        got = (data.x_gl, data.c_sp, *data.c_plus, data.y_inv, data.one_minus_phi_inv, data.pol_den_inv)
        want = (
            (one + phi) / (phi * d),
            -phi / d,
            *(t.from_int(sign) / d for sign in ((-1) ** (n + 1), (-1) ** n)),
            one / data.y,
            one / (one - phi),
            one / pol_den,
        )
        assert list(map(_exact, got)) == list(map(_exact, want)), (p, n, u)
        for sign, k in (("+", 2 * n - 1), ("-", -1)):
            closed = two * t.from_int(2 * n) * phi**k / pol_den
            assert _exact(pol_products(p, n, u, sign)) == _exact(closed), (sign, p, n, u)
        for minus in (False, True):
            y = -data.y if minus else data.y
            x = phi * data.x_gl if minus else data.x_gl
            terms = (-(one / x), y ** (1 - n), y ** (-n), one + y, one / (y - one))
            got = endoscopy.sign_terms(p, n, u, minus)
            assert list(map(_exact, got)) == list(map(_exact, terms)), (minus, p, n, u)
        for kind in (GroupKind.SO_SPL, GroupKind.SO_UR):
            w = t.pi() * t.from_int(_u_tilde(GroupId(kind, n), p, u))
            for variant in FAMILY_VARIANTS[kind]:
                num = one - phi**2 * w if variant == "phi_coset" else phi**2 - w
                dfac = two**2 * num / ((one - phi) ** 2 * (one - w))
                cfac = two**2 / (one - w) if variant == "plus" else -(two**2) * w / (one - w)
                got = endoscopy.so_factors(kind, p, n, u, variant)
                assert list(map(_exact, got)) == [_exact(dfac), _exact(cfac)], (kind, variant, p, n, u)
        if (p - 1) % (2 * n):
            continue
        assert _root_pair_val(p, n, u) == _root_pair_by_division(p, n, u)
        for kind, variant in DISC_TABLE:
            group = GroupId(kind, n, nu_of_u(make_field(p), n, u) if kind is GroupKind.SO_RAM else 0)
            assert weyl_disc_val(group, p, u, variant) == _disc_by_division(group, p, u, variant)


def test_so_factors_make_one_solve_per_plane(monkeypatch):
    """With the per-tower inverses of ``walds_family`` warm, the three
    variants of ``so_factors`` at one (kind, p, n, u) make one solve between
    them, for 1 - w; each variant divided by 1 - w and (1 - phi)^2 (1 - w)."""
    kind, p, n, u = GroupKind.SO_UR, 7, 3, 2
    t = walds_family(p, n, u).tower
    endoscopy.so_factors.cache_clear()
    families.so_plane.cache_clear()
    solved = []
    real = padic._poly_solve

    def counted(tower, unit, rhs):
        solved.append(unit)
        return real(tower, unit, rhs)

    monkeypatch.setattr(padic, "_poly_solve", counted)
    for variant in FAMILY_VARIANTS[kind]:
        endoscopy.so_factors(kind, p, n, u, variant)
    w = t.pi() * t.from_int(_u_tilde(GroupId(kind, n), p, u))
    assert solved == [(t.one() - w).unit]
