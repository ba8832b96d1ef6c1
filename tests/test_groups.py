import random
from fractions import Fraction

import pytest

from endolab import characters, groups, suites
from endolab.characters import family_element, random_affine_generic
from endolab.errors import HypothesisFailed, InvalidParams, NotAffineGeneric, PrecisionExhausted
from endolab.families import (
    FAMILY_VARIANTS,
    family_matrix,
    family_phi,
    gl_odd_family,
    nu_of_u,
    so_ram_v,
    weyl_disc_val,
)
from endolab.groups import (
    GroupId,
    GroupKind,
    GroupMatrix,
    Level,
    charpoly_eisenstein_check,
    in_px_plus,
    is_affine_generic,
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
from endolab.linalg import charpoly, mat_transpose
from endolab.residue import make_field

P = 5


def comps_ints(g):
    return [c.key() if c.field.f == 2 else c.a for c in simple_affine_components(g)]


def group_identity(group: GroupId, p: int) -> GroupMatrix:
    return GroupMatrix(group, p, scalar(1, group.size))


def with_entries(g, changes):
    """g with the entries of its int rows at (i, j) replaced as ``changes`` maps."""
    rows = [list(row) for row in g.a]
    for (i, j), x in changes.items():
        rows[i][j] = x
    return GroupMatrix(g.group, g.p, rows, g.s, g.prec)


# forms and membership: the defining forms and the membership test are
# oracles of these tests only; the library never checks membership


CHECK_DIGITS = 2


def form(group: GroupId, p: int):
    """The defining bilinear form matrix, as int rows (None for the general
    linear kinds)."""
    N = group.size
    n = group.n
    k = make_field(p)
    if group.kind in (GroupKind.GL, GroupKind.TWISTED_GL):
        return None
    rows = [[0] * N for _ in range(N)]
    if group.kind is GroupKind.SP:
        for i in range(N):
            rows[i][N - 1 - i] = (-1) ** i
        return rows
    if group.kind is GroupKind.SO_SPL:
        for i in range(N):
            rows[i][N - 1 - i] = 1
        return rows
    if group.kind is GroupKind.SO_RAM:
        for i in range(N):
            if i not in (n - 1, n):
                rows[i][N - 1 - i] = 1
        rows[n - 1][n - 1] = 1
        rows[n][n] = -(k.eps.a ** group.nu_mu) * p
        return rows
    # SO_UR
    for i in range(N):
        if i not in (n, n + 1):
            rows[i][N - 1 - i] = 1
    rows[n][n] = 1
    rows[n + 1][n + 1] = -k.eps.a
    return rows


def mat_eq(x: GroupMatrix, y: GroupMatrix, digits):
    """x = y to absolute precision p^digits."""
    p, s = x.p, max(x.s, y.s)
    mod = p ** (digits + s)
    return all(
        (a * p ** (s - x.s) - b * p ** (s - y.s)) % mod == 0
        for ra, rb in zip(x.a, y.a)
        for a, b in zip(ra, rb)
    )


def scalar(c, size):
    return [[c if i == j else 0 for j in range(size)] for i in range(size)]


def is_member(g: GroupMatrix) -> bool:
    """Form-compatibility (and det 1 for the orthogonal kinds) to CHECK_DIGITS."""
    J = form(g.group, g.p)
    if J is None:
        try:
            g.inv()
            return True
        except PrecisionExhausted:
            return False
    Jm = GroupMatrix(g.group, g.p, J)
    lhs = GroupMatrix(g.group, g.p, mat_transpose(g.a), g.s, g.prec) * Jm * g
    if not mat_eq(lhs, Jm, CHECK_DIGITS):
        return False
    if g.group.kind in (GroupKind.SO_RAM, GroupKind.SO_SPL, GroupKind.SO_UR):
        N = len(g.a)
        det = (-1) ** N * charpoly(g.a, g.p**g.prec)[0]  # det(a) = p^(N s) det(g)
        if (det - g.p ** (N * g.s)) % g.p ** (N * g.s + CHECK_DIGITS):
            return False
    return True


def test_symplectic_form_antidiagonal():
    J = form(GroupId(GroupKind.SP, 2), P)
    for i in range(4):
        assert J[i][3 - i] == (-1) ** i


def test_ramified_form_middle_entry():
    for nu in (0, 1):
        J = form(GroupId(GroupKind.SO_RAM, 2, nu), P)
        assert J[2][2] == -(make_field(P).eps.a ** nu) * P


def test_unramified_form_middle():
    J = form(GroupId(GroupKind.SO_UR, 2), P)
    assert J[2][2] == 1
    assert J[3][3] == -make_field(P).eps.a


# membership -----------------------------------------------------------------


def test_identity_is_member():
    for kind in (GroupKind.SP, GroupKind.SO_SPL, GroupKind.SO_UR):
        assert is_member(group_identity(GroupId(kind, 2), P))


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
    assert not is_member(with_entries(g, {(0, 1): g.a[0][1] + 1}))


# theta ------------------------------------------------------------------------


def test_theta_involution_and_phi():
    gid = GroupId(GroupKind.TWISTED_GL, 2)
    g = family_matrix(gid, P, 2)
    assert mat_eq(theta(theta(g)), g, 8)
    ph = phi_element(gid, P, 3)
    assert mat_eq(theta(ph), ph.inv().neg(), 8)
    td = theta(GroupMatrix(gid, P, scalar(2, 4)))
    assert td.s == 0
    for i in range(4):
        assert td.a[i][i] == pow(2, -1, P**td.prec)


@pytest.mark.parametrize(
    "gid",
    [GroupId(GroupKind.TWISTED_GL, 2), GroupId(GroupKind.TWISTED_GL, 3), GroupId(GroupKind.GL, 5)],
    ids=str,
)
def test_theta_matches_the_antidiagonal_product(gid):
    """theta(g) is J (g^T)^-1 J^-1 for the antidiagonal J with entries
    (-1)^(i-1), digit for digit."""
    N = gid.size
    J = GroupMatrix(gid, P, [[(-1) ** i if j == N - 1 - i else 0 for j in range(N)] for i in range(N)])
    mask = iwahori_mask_at(gid, Fraction(1, gid.coxeter))
    rng = random.Random(11)
    for _ in range(20):
        g = random_iplus(gid, P, mask, rng)
        gt = GroupMatrix(gid, P, mat_transpose(g.a), g.s, g.prec)
        assert theta(g) == J * (gt.inv() * J.inv())


def test_phi_power_is_scalar():
    gid = GroupId(GroupKind.TWISTED_GL, 2)
    ph = phi_element(gid, P, 3)
    p4 = ph * ph * ph * ph
    assert mat_eq(p4, GroupMatrix(gid, P, scalar(3 * P, 4)), 8)


def test_phi_so_membership():
    for kind in (GroupKind.SO_SPL, GroupKind.SO_UR):
        gid = GroupId(kind, 2)
        assert is_member(phi_element(gid, P, *family_phi(gid, P, 1, "phi_coset")))


def test_phi_uniqueness():
    """phi_{a,b} lies in the +-coset of phi_{a',b'} only when the parameters
    agree (the quotient is a diagonal torus element otherwise)."""
    gid = GroupId(GroupKind.SO_SPL, 2)
    params = [(1, 1), (2, 1), (1, 3)]
    for a1, b1 in params:
        for a2, b2 in params:
            ph1 = phi_element(gid, P, a1, b1)
            ph2 = phi_element(gid, P, a2, b2)
            quot = ph1 * ph2.inv()
            in_coset = iwahori_level(quot) >= Level.IPLUS or iwahori_level(quot.neg()) >= Level.IPLUS
            assert in_coset == ((a1, b1) == (a2, b2))


# levels and components -----------------------------------------------------------


def test_iwahori_levels():
    gid = GroupId(GroupKind.SP, 2)
    one = group_identity(gid, P)
    assert iwahori_level(one) == Level.IPLUSPLUS
    g = family_matrix(gid, P, 1)
    assert iwahori_level(g) == Level.IPLUS
    # unit-diagonal non-unipotent element sits in I but not I+
    t = with_entries(one, {(0, 0): 2, (3, 3): pow(2, -1, P**one.prec)})
    assert iwahori_level(t) == Level.I
    # a pi-scaled diagonal diag(p, 1, 1, 1/p), at scale 1, leaves the Iwahori
    d = GroupMatrix(gid, P, [[P * P, 0, 0, 0], [0, P, 0, 0], [0, 0, P, 0], [0, 0, 0, 1]], 1)
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
def test_group_id_refuses_a_rank_below_its_floor(kind):
    """so_spl and so_ur (SO_{2n+2}) start at rank 2, every other kind at 1:
    GroupId refuses any rank below that, naming the floor, and builds at it."""
    floor = 2 if kind in (GroupKind.SO_SPL, GroupKind.SO_UR) else 1
    assert groups.rank_floor(kind) == floor
    for n in (floor - 1, 0, -1):
        with pytest.raises(InvalidParams, match=f"{kind.value} starts at rank {floor}"):
            GroupId(kind, n)
    assert GroupId(kind, floor).size > 0


@pytest.mark.parametrize("kind", list(GroupKind))
def test_iwahori_masks_match_ceil_rule(kind):
    for n in range(groups.rank_floor(kind), 5):
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
    assert not is_affine_generic(with_entries(g, {(0, 1): 0}))
    assert not is_affine_generic(group_identity(GroupId(GroupKind.SP, 2), P))


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
        g = random_iplus(gid, P, mask, rng)
        nm = g * theta(g)
        if iwahori_level(nm) < Level.IPLUS:
            continue
        cg = comps_ints(g)
        cn = comps_ints(nm)
        expect = [(cg[i] + cg[2 * 2 - 2 - i]) % P for i in range(3)] + [(2 * cg[3]) % P]
        assert cn == expect


def test_coset_families_match_phi_translates():
    """Every family on a phi coset, read through family_element with its phi
    datum, is the plus family translated by that phi up to I+: g_u * phi on
    the even orthogonal groups, phi * g_u on the twisted linear group."""
    on_coset = []
    for kind, variants in FAMILY_VARIANTS.items():
        for variant in variants:
            for u in range(1, P):
                el = family_element(kind, 2, P, u, variant)
                if not el.phi:
                    continue
                on_coset.append((kind, variant))
                g = family_matrix(el.group, P, u)
                phi = phi_element(el.group, P, *el.phi)
                lhs = phi * g if kind is GroupKind.TWISTED_GL else g * phi
                assert iwahori_level(lhs * el.matrix.inv()) >= Level.IPLUS
    assert set(on_coset) == {
        (GroupKind.SO_SPL, "phi_coset"),
        (GroupKind.SO_UR, "phi_coset"),
        (GroupKind.TWISTED_GL, "minus"),
    }


# characteristic polynomials ------------------------------------------------------


def test_eisenstein_family():
    g = family_matrix(GroupId(GroupKind.TWISTED_GL, 2), P, 3)
    ok, a0 = charpoly_eisenstein_check(g)
    assert ok and a0.a == (-3) % P


def test_eisenstein_requires_genericity():
    gid = GroupId(GroupKind.TWISTED_GL, 2)
    with pytest.raises(NotAffineGeneric):
        charpoly_eisenstein_check(group_identity(gid, P))


def test_eisenstein_random_small():
    rng = random.Random(7)
    gid = GroupId(GroupKind.TWISTED_GL, 2)
    mask = iwahori_mask_at(gid, Fraction(1, gid.coxeter))
    for _ in range(15):
        g = sample_iplus(gid, 3, mask, rng, is_affine_generic)
        ok, _ = charpoly_eisenstein_check(g)
        assert ok


def test_eisenstein_check_reads_each_level_once(monkeypatch):
    rng = random.Random(0)
    gid = GroupId(GroupKind.TWISTED_GL, 2)
    mask = iwahori_mask_at(gid, Fraction(1, gid.coxeter))
    samples = [sample_iplus(gid, 3, mask, rng, is_affine_generic) for _ in range(50)]
    level = groups.iwahori_level
    calls = []
    monkeypatch.setattr(groups, "iwahori_level", lambda g: calls.append(g) or level(g))
    for g in samples:
        ok, _ = charpoly_eisenstein_check(g)
        assert ok
    assert len(calls) == 50


def _never_accepted(monkeypatch, kind):
    """Make every I+ draw of ``kind`` the zero matrix, which no sampler
    accepts; fail instead of looping once 2000 draws are made."""
    real = groups.random_iplus
    draws = []

    def fake(group, p, mask, rng):
        if group.kind is not kind:
            return real(group, p, mask, rng)
        draws.append(group)
        assert len(draws) < 2000, "the sampling loop has no cap"
        return GroupMatrix(group, p, [[0] * group.size for _ in range(group.size)])

    monkeypatch.setattr(groups, "random_iplus", fake)
    return draws


def _never_generic(monkeypatch, kind):
    """Make ``_generic_in_iplus`` refuse every element of ``kind``, recording
    each candidate; fail instead of looping once 2000 are refused."""
    real = characters._generic_in_iplus
    candidates = []

    def fake(g):
        if g.group.kind is not kind:
            return real(g)
        candidates.append(g)
        assert len(candidates) < 2000, "the sampling loop has no cap"
        return False

    monkeypatch.setattr(characters, "_generic_in_iplus", fake)
    return candidates


@pytest.mark.parametrize(
    "refuse, kind, sample",
    [
        (_never_accepted, GroupKind.TWISTED_GL, lambda: suites.charpoly_suite(q=3, n=2, samples=1)),
        (_never_accepted, GroupKind.GL, lambda: suites.charpoly_suite(q=3, n=2, samples=1)),
        (
            _never_accepted,
            GroupKind.TWISTED_GL,
            lambda: random_affine_generic(GroupId(GroupKind.TWISTED_GL, 2), 3, random.Random(0)),
        ),
        (_never_generic, GroupKind.SP, lambda: random_affine_generic(GroupId(GroupKind.SP, 2), 3, random.Random(0))),
    ],
    ids=["charpoly_eisenstein", "charpoly_twisted_norm", "random_affine_generic", "random_affine_generic_sp"],
)
def test_iplus_sampling_is_capped(monkeypatch, refuse, kind, sample):
    draws = refuse(monkeypatch, kind)
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
    x = with_entries(group_identity(gid, P), {(0, 0): 1 + P * 2, (2 * n, 2 * n): pow(1 + P * 2, -1, P**groups.EXACT_PREC)})
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
    # the eigenvalue route needs p = 1 mod 2n and must agree with the table
    assert weyl_disc_val(gid, 5, 1, variant) == Fraction(expect_num, 2)
