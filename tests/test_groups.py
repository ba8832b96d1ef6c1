import random
from fractions import Fraction

import pytest

from endolab import groups, suites
from endolab.characters import random_affine_generic
from endolab.errors import HypothesisFailed, NotAffineGeneric
from endolab.families import (
    base_field,
    family_matrix,
    gl_odd_family,
    nu_of_u,
    so_even_phi_params,
    so_ram_v,
    weyl_disc_val,
)
from endolab.groups import (
    GroupId,
    GroupKind,
    GroupMatrix,
    Level,
    charpoly_eisenstein_check,
    form,
    group_identity,
    in_px_plus,
    is_affine_generic,
    is_member,
    iwahori_level,
    iwahori_mask_at,
    phi_element,
    px_plus_mask_at,
    random_iplus,
    sample_iplus,
    simple_affine_components,
    theta,
    twisted_norm_charpoly_check,
)
from endolab.linalg import mat_eq, mat_id, mat_inv, mat_mul, mat_scale, mat_transpose
from endolab.residue import make_field

P = 5
B = base_field(P)


def comps_ints(g):
    return [c.key() if c.field.f == 2 else c.a for c in simple_affine_components(g)]


# forms ---------------------------------------------------------------------


def test_symplectic_form_antidiagonal():
    J = form(GroupId(GroupKind.SP, 2), B)
    for i in range(4):
        assert J[i][3 - i] == B.from_int((-1) ** i)


def test_ramified_form_middle_entry():
    for nu in (0, 1):
        J = form(GroupId(GroupKind.SO_RAM, 2, nu), B)
        star = J[2][2]
        expect = B.from_int(-(make_field(P).eps.a ** nu)) * B.pi()
        assert star == expect


def test_unramified_form_middle():
    J = form(GroupId(GroupKind.SO_UR, 2), B)
    assert J[2][2] == B.one()
    assert J[3][3] == B.from_int(-make_field(P).eps.a)


# membership -----------------------------------------------------------------


def test_identity_is_member():
    for kind in (GroupKind.SP, GroupKind.SO_SPL, GroupKind.SO_UR):
        assert is_member(group_identity(GroupId(kind, 2), B))


@pytest.mark.parametrize("kind", [GroupKind.SP, GroupKind.SO_RAM, GroupKind.SO_SPL, GroupKind.SO_UR])
@pytest.mark.parametrize("q", [3, 5, 7])
@pytest.mark.parametrize("n", [2, 3])
def test_families_are_members_in_iplus(kind, q, n):
    k = make_field(q)
    for u in range(1, q):
        nu = nu_of_u(k, n, u) if kind is GroupKind.SO_RAM else 0
        gid = GroupId(kind, n, nu)
        g = family_matrix(gid, q, u)
        assert is_member(g)
        assert iwahori_level(g) == Level.IPLUS
        assert is_affine_generic(g)


def test_perturbed_family_is_not_member():
    gid = GroupId(GroupKind.SP, 2)
    g = family_matrix(gid, P, 1)
    g.entries[0][1] = g.entries[0][1] + B.one()
    assert not is_member(g)


# theta ------------------------------------------------------------------------


def test_theta_involution_and_phi():
    gid = GroupId(GroupKind.TWISTED_GL, 2)
    g = family_matrix(gid, P, 2)
    assert mat_eq(theta(theta(g)).entries, g.entries, 8)
    ph = phi_element(gid, B, 3)
    assert mat_eq(theta(ph).entries, ph.inv().neg().entries, 8)
    d = GroupMatrix(gid, B, mat_scale(mat_id(B, 4), B.from_int(2)))
    td = theta(d)
    half = B.from_int(2).inv()
    for i in range(4):
        assert td.entries[i][i] == half


def _entry(x):
    return None if x.is_zero() else (x.shift, x.unit, x.rprec)


@pytest.mark.parametrize(
    "gid",
    [GroupId(GroupKind.TWISTED_GL, 2), GroupId(GroupKind.TWISTED_GL, 3), GroupId(GroupKind.GL, 5)],
    ids=str,
)
def test_theta_matches_the_antidiagonal_product(gid):
    """theta(g) is J (g^T)^-1 J^-1 for the antidiagonal J with entries
    (-1)^(i-1), digit for digit."""
    N = gid.size
    J = [[B.zero() for _ in range(N)] for _ in range(N)]
    for i in range(N):
        J[i][N - 1 - i] = B.from_int((-1) ** i)
    mask = iwahori_mask_at(gid, Fraction(1, gid.coxeter))
    rng = random.Random(11)
    for _ in range(20):
        g = random_iplus(gid, B, mask, rng)
        want = mat_mul(J, mat_mul(mat_inv(mat_transpose(g.entries)), mat_inv(J)))
        got = theta(g).entries
        assert [[_entry(x) for x in row] for row in got] == [[_entry(x) for x in row] for row in want]


def test_phi_power_is_scalar():
    gid = GroupId(GroupKind.TWISTED_GL, 2)
    ph = phi_element(gid, B, 3)
    p4 = ph * ph * ph * ph
    target = mat_scale(mat_id(B, 4), B.from_int(3) * B.pi())
    assert mat_eq(p4.entries, target, 8)


def test_phi_so_membership():
    for kind in (GroupKind.SO_SPL, GroupKind.SO_UR):
        gid = GroupId(kind, 2)
        al, be = so_even_phi_params(gid, P, 1)
        assert is_member(phi_element(gid, B, al, be))


def test_phi_uniqueness():
    """phi_{a,b} lies in the +-coset of phi_{a',b'} only when the parameters
    agree (the quotient is a diagonal torus element otherwise)."""
    gid = GroupId(GroupKind.SO_SPL, 2)
    k = make_field(P)
    params = [(k.coerce(1), k.coerce(1)), (k.coerce(2), k.coerce(1)), (k.coerce(1), k.coerce(3))]
    for a1, b1 in params:
        for a2, b2 in params:
            ph1 = phi_element(gid, B, a1, b1)
            ph2 = phi_element(gid, B, a2, b2)
            quot = ph1 * ph2.inv()
            in_coset = iwahori_level(quot) >= Level.IPLUS or iwahori_level(quot.neg()) >= Level.IPLUS
            assert in_coset == ((a1, b1) == (a2, b2))


# levels and components -----------------------------------------------------------


def test_iwahori_levels():
    gid = GroupId(GroupKind.SP, 2)
    assert iwahori_level(group_identity(gid, B)) == Level.IPLUSPLUS
    g = family_matrix(gid, P, 1)
    assert iwahori_level(g) == Level.IPLUS
    # unit-diagonal non-unipotent element sits in I but not I+
    t = group_identity(gid, B)
    t.entries[0][0] = B.from_int(2)
    t.entries[3][3] = B.from_int(2).inv()
    assert iwahori_level(t) == Level.I
    # a pi-scaled diagonal leaves the Iwahori entirely
    d = group_identity(gid, B)
    d.entries[0][0] = B.pi()
    d.entries[3][3] = B.pi().inv()
    assert iwahori_level(d) == Level.OUTSIDE


def _explicit_ceil_rule(x, level):
    """The explicit numerator/denominator ceil rule the int masks replace."""
    out = []
    for xi in x:
        row = []
        for xj in x:
            t = level - xi + xj
            row.append(-((-t.numerator) // t.denominator))
        out.append(row)
    return out


def _assert_cached_int_grid(get, expect):
    mask = get()
    assert isinstance(mask, tuple) and all(isinstance(row, tuple) for row in mask)
    assert all(type(m) is int for row in mask for m in row)
    assert [list(row) for row in mask] == expect
    assert get() is mask


@pytest.mark.parametrize("kind", list(GroupKind))
def test_iwahori_masks_match_ceil_rule(kind):
    for n in range(1, 5):
        gid = GroupId(kind, n)
        h = gid.coxeter
        for level in (Fraction(0), Fraction(1, h), Fraction(2, h)):
            expect = _explicit_ceil_rule(gid.weight_vector(), level)
            _assert_cached_int_grid(lambda: iwahori_mask_at(gid, level), expect)


def test_px_plus_mask_matches_ceil_rule():
    for n in range(1, 5):
        x = [Fraction(2 * n + 1 - i, 2 * n) for i in range(1, 2 * n + 2)]
        expect = _explicit_ceil_rule(x, Fraction(1, 2 * n))
        _assert_cached_int_grid(lambda: px_plus_mask_at(n), expect)
        # the sampler scales entries by p^mask, so no entry may be negative
        assert min(map(min, expect)) >= 0


def test_family_components():
    k = make_field(P)
    sp = family_matrix(GroupId(GroupKind.SP, 2), P, 3)
    assert comps_ints(sp) == [2, 2, (2 * 3) % P]
    gl = family_matrix(GroupId(GroupKind.TWISTED_GL, 2), P, 3)
    assert comps_ints(gl) == [1, 1, 1, 3]
    u = 1
    nu = nu_of_u(k, 2, u)
    so = family_matrix(GroupId(GroupKind.SO_RAM, 2, nu), P, u)
    v = so_ram_v(k, 2, u, nu)
    assert comps_ints(so) == [2, (2 * v.inv()).a]
    so2 = family_matrix(GroupId(GroupKind.SO_RAM, 2, nu), P, u, v_sign=-1)
    assert comps_ints(so2) == [2, (-2 * v.inv()).a]
    spl = family_matrix(GroupId(GroupKind.SO_SPL, 2), P, u)
    assert comps_ints(spl) == [P - 1, P - 1, 2, (-2 * u) % P]
    ur = family_matrix(GroupId(GroupKind.SO_UR, 2), P, u)
    assert comps_ints(ur) == [1, (2, 0), (-2 * u) % P]


def test_so_spl_components_n3():
    # (-1, 2, ..., 2, -1, 2, (-1)^{n-1} 2u) at n = 3
    g = family_matrix(GroupId(GroupKind.SO_SPL, 3), P, 2)
    assert comps_ints(g) == [P - 1, 2, P - 1, 2, 4]


def test_affine_generic_detects_zero_slot():
    g = family_matrix(GroupId(GroupKind.SP, 2), P, 1)
    g.entries[0][1] = B.zero()
    assert not is_affine_generic(g)
    assert not is_affine_generic(group_identity(GroupId(GroupKind.SP, 2), B))


def test_components_invariant_under_ipp_translation():
    """components(g k) = components(g) for k in the next filtration step."""
    gid = GroupId(GroupKind.SP, 2)
    g = family_matrix(gid, P, 1)
    x = family_matrix(gid, P, 2)
    conj = x * g * x.inv()
    k_elt = g * conj.inv()  # component-free quotient, lands in I++
    assert iwahori_level(k_elt) == Level.IPLUSPLUS
    h = family_matrix(gid, P, 3)
    assert comps_ints(h * k_elt) == comps_ints(h)


def test_twisted_norm_components_pattern():
    """The components of g*theta(g) are (g_1+g_{2n-1}, ..., 2 g_0)."""
    gid = GroupId(GroupKind.TWISTED_GL, 2)
    rng = random.Random(2)
    mask = iwahori_mask_at(gid, Fraction(1, gid.coxeter))
    for _ in range(5):
        g = random_iplus(gid, B, mask, rng)
        nm = GroupMatrix(gid, B, mat_mul(g.entries, theta(g).entries))
        if iwahori_level(nm) < Level.IPLUS:
            continue
        cg = comps_ints(g)
        cn = comps_ints(nm)
        expect = [(cg[i] + cg[2 * 2 - 2 - i]) % P for i in range(3)] + [(2 * cg[3]) % P]
        assert cn == expect


def test_coset_families_match_phi_translates():
    """The mixed-sign family equals g_u * phi_{alpha,beta} up to I+."""
    for kind in (GroupKind.SO_SPL, GroupKind.SO_UR):
        gid = GroupId(kind, 2)
        g = family_matrix(gid, P, 1)
        al, be = so_even_phi_params(gid, P, 1)
        lhs = g * phi_element(gid, B, al, be)
        rhs = family_matrix(gid, P, 1, "phi_coset")
        quot = lhs * rhs.inv()
        assert iwahori_level(quot) >= Level.IPLUS


# characteristic polynomials ------------------------------------------------------


def test_eisenstein_family():
    g = family_matrix(GroupId(GroupKind.TWISTED_GL, 2), P, 3)
    ok, a0 = charpoly_eisenstein_check(g)
    assert ok and a0.a == (-3) % P


def test_eisenstein_requires_genericity():
    gid = GroupId(GroupKind.TWISTED_GL, 2)
    with pytest.raises(NotAffineGeneric):
        charpoly_eisenstein_check(group_identity(gid, B))


def test_eisenstein_random_small():
    rng = random.Random(7)
    gid = GroupId(GroupKind.TWISTED_GL, 2)
    mask = iwahori_mask_at(gid, Fraction(1, gid.coxeter))
    for _ in range(15):
        g = sample_iplus(gid, base_field(3), mask, rng, is_affine_generic)
        ok, _ = charpoly_eisenstein_check(g)
        assert ok


def _never_accepted(monkeypatch, kind):
    """Make every I+ draw of ``kind`` the zero matrix, which no sampler
    accepts; fail instead of looping once 2000 draws are made."""
    real = groups.random_iplus
    draws = []

    def fake(group, base, mask, rng):
        if group.kind is not kind:
            return real(group, base, mask, rng)
        draws.append(group)
        assert len(draws) < 2000, "the sampling loop has no cap"
        return GroupMatrix(group, base, [[base.zero()] * group.size for _ in range(group.size)])

    monkeypatch.setattr(groups, "random_iplus", fake)
    return draws


@pytest.mark.parametrize(
    "kind, sample",
    [
        (GroupKind.TWISTED_GL, lambda: suites.charpoly_suite(q=3, n=2, samples=1)),
        (GroupKind.GL, lambda: suites.charpoly_suite(q=3, n=2, samples=1)),
        (GroupKind.TWISTED_GL, lambda: random_affine_generic(GroupId(GroupKind.TWISTED_GL, 2), 3, random.Random(0))),
    ],
    ids=["charpoly_eisenstein", "charpoly_twisted_norm", "random_affine_generic"],
)
def test_iplus_sampling_is_capped(monkeypatch, kind, sample):
    draws = _never_accepted(monkeypatch, kind)
    with pytest.raises(HypothesisFailed):
        sample()
    assert len(draws) == groups.SAMPLE_TRIES


def test_twisted_norm_family_values():
    x = gl_odd_family(3, 2, 1)
    assert in_px_plus(x)
    h = family_matrix(GroupId(GroupKind.SP, 2), 3, 1)
    ok, a1 = twisted_norm_charpoly_check(x, norm_y=h)
    assert ok
    assert a1.a == (-pow(2, 4, 3)) % 3


def test_theta_fixed_torus_has_zero_constant_term():
    n = 2
    gid = GroupId(GroupKind.GL, 2 * n + 1)
    rows = mat_id(B, 2 * n + 1)
    rows[0][0] = B.from_int(1 + P * 2)
    rows[2 * n][2 * n] = rows[0][0].inv()
    x = GroupMatrix(gid, B, rows)
    ok, _ = twisted_norm_charpoly_check(x)
    assert ok


# Weyl discriminants ---------------------------------------------------------------


@pytest.mark.parametrize(
    "kind,variant,expect_num",
    [
        (GroupKind.SP, "plus", 2),
        (GroupKind.TWISTED_GL, "plus", 2),
        (GroupKind.TWISTED_GL, "minus", 1),
        (GroupKind.SO_RAM, "plus", 1),
        (GroupKind.SO_SPL, "plus", 3),
        (GroupKind.SO_SPL, "phi_coset", 1),
    ],
)
def test_disc_table_n2(kind, variant, expect_num):
    from fractions import Fraction

    gid = GroupId(kind, 2, nu_of_u(make_field(5), 2, 1) if kind is GroupKind.SO_RAM else 0)
    assert weyl_disc_val(gid, 5, 1, variant) == Fraction(expect_num, 2)
    # the eigenvalue route needs p = 1 mod 2n and must agree
    assert weyl_disc_val(gid, 5, 1, variant, direct=True) == Fraction(expect_num, 2)
