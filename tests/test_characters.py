import random
from fractions import Fraction

import pytest

from endolab import characters
from endolab.characters import (
    CharElement,
    SSCParams,
    _psi_form,
    affine_char_eval,
    char_brute_force,
    char_closed_form,
    describe,
    family_element,
    formal_degree_ineq,
    min_depth,
    random_affine_generic,
    torus_index_set,
)
from endolab.errors import InvalidParams, OutOfDomain
from endolab.families import base_field, family_matrix, nu_of_u
from endolab.groups import GroupId, GroupKind, group_identity, phi_element
from endolab.residue import QuadExtension, make_field, quad_extension
from endolab.suites import _params_grid
from endolab.sums import kl_simple, kloosterman_eval, sp_spec

P = 5
B = base_field(P)
K = make_field(P)


def gl_zeta(k):
    return 1.0 if k.dlog(k.coerce(-1)) % 2 == 0 else 1.0j


# the inducing character's linear form ----------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("kappa", [0, 1])
def test_unramified_form_matches_extension_trace(p, kappa):
    """The middle-slot pair (c0, c1) reproduces Tr(eps~^kappa * h) computed
    through a fresh QuadExtension, for every h in F_p^2."""
    k = make_field(p)
    ext = QuadExtension(k)
    n = 3
    _, weights = _psi_form(SSCParams(GroupId(GroupKind.SO_UR, n), 1, kappa=kappa), p)
    c0, c1 = weights[n - 1 : n + 1]
    for h0 in range(p):
        for h1 in range(p):
            hx = (k.elem(h0), k.elem(h1))
            if kappa:
                hx = ext.mul(ext.eps_tilde(), hx)
            assert (c0 * h0 + c1 * h1) % p == ext.trace(hx).a


def test_quad_extension_cached_per_field():
    for p in (3, 5, 7):
        assert quad_extension(make_field(p)) is quad_extension(make_field(p))


# parameter validation ------------------------------------------------------


def test_params_validation():
    sp = GroupId(GroupKind.SP, 2)
    with pytest.raises(InvalidParams):
        SSCParams(sp, 1, xi=2)
    so = GroupId(GroupKind.SO_SPL, 2)
    with pytest.raises(InvalidParams):
        SSCParams(so, 1, zeta=0.5)
    gl = GroupId(GroupKind.TWISTED_GL, 2)
    good = SSCParams(gl, 1, zeta=gl_zeta(K))
    good.validate_theta_stable(P)
    with pytest.raises(InvalidParams):
        SSCParams(gl, 1, zeta=2.0).validate_theta_stable(P)


# the inducing character ------------------------------------------------------


def test_affine_char_at_central_minus_one():
    sp = GroupId(GroupKind.SP, 2)
    minus = group_identity(sp, B).neg()
    for xi in (1, -1):
        params = SSCParams(sp, 1, xi)
        assert affine_char_eval(params, CharElement(sp, minus)) == xi


def test_affine_char_trivial_on_deeper_step():
    sp = GroupId(GroupKind.SP, 2)
    g = family_matrix(sp, P, 1)
    x = family_matrix(sp, P, 2)
    k_elt = g * (x * g * x.inv()).inv()  # lands in I++
    params = SSCParams(sp, 2, 1, 1)
    assert abs(affine_char_eval(params, CharElement(sp, k_elt)) - 1) < 1e-12


def test_affine_char_at_phi_gives_zeta():
    so = GroupId(GroupKind.SO_SPL, 2)
    for kappa in (0, 1):
        for a in (1, 2):
            alpha = K.eps**kappa
            beta = -K.coerce(a).inv()
            ph = phi_element(so, B, alpha, beta)
            for zeta in (1, -1):
                params = SSCParams(so, a, 1, kappa, zeta)
                el = CharElement(so, ph, coset="phi", phi_ab=(alpha, beta))
                assert abs(affine_char_eval(params, el) - zeta) < 1e-12


def test_affine_char_out_of_domain():
    sp = GroupId(GroupKind.SP, 2)
    d = group_identity(sp, B)
    d.entries[0][0] = B.pi()
    d.entries[3][3] = B.pi().inv()
    with pytest.raises(OutOfDomain):
        affine_char_eval(SSCParams(sp, 1), CharElement(sp, d))


# index sets ---------------------------------------------------------------------


def test_index_set_sizes():
    q = P
    sp = GroupId(GroupKind.SP, 2)
    el = CharElement(sp, family_matrix(sp, q, 1))
    assert len(torus_index_set(SSCParams(sp, 1), el)) == (q - 1) ** 2 // 2
    nu = nu_of_u(K, 2, 1)
    so = GroupId(GroupKind.SO_RAM, 2, nu)
    el = CharElement(so, family_matrix(so, q, 1))
    assert len(torus_index_set(SSCParams(so, 1), el)) == (q - 1) ** (2 - 1)


def test_gl_coset_index_set_empty_iff_nonsquare():
    gl = GroupId(GroupKind.TWISTED_GL, 2)
    for u in range(1, P):
        el = CharElement(gl, family_matrix(gl, P, u, "minus"), coset="phi", phi_u=u)
        for a in range(1, P):
            reps = torus_index_set(SSCParams(gl, a, zeta=gl_zeta(K)), el)
            expect_empty = not (K.coerce(a) * K.coerce(u)).is_square()
            assert (len(reps) == 0) == expect_empty
            if reps:
                assert len(reps) == 2 * (P - 1)


# oracle agreement (small spot grid; the acceptance suite runs the full one) -------


def test_brute_equals_closed_sp_family():
    sp = GroupId(GroupKind.SP, 2)
    for u in (1, 2):
        el = CharElement(sp, family_matrix(sp, P, u))
        d = describe(el)
        for params in (SSCParams(sp, 1, 1, 0), SSCParams(sp, 3, -1, 1)):
            bf = char_brute_force(params, el).value
            cf = char_closed_form(params, d).value
            assert abs(bf - cf) < 1e-9
            assert bf.real == pytest.approx(cf.real, abs=1e-9)


def test_so_ram_closed_form_is_kloosterman():
    u = 1
    nu = nu_of_u(K, 2, u)
    so = GroupId(GroupKind.SO_RAM, 2, nu)
    el = CharElement(so, family_matrix(so, P, u))
    d = describe(el)
    params = SSCParams(so, 2, 1)
    alpha = K.coerce(2)
    for c in d.components:
        alpha = alpha * c
    expect = kloosterman_eval(kl_simple(K, 2), alpha)
    assert abs(char_closed_form(params, d).value - expect) < 1e-12
    assert abs(char_brute_force(params, el).value - expect) < 1e-9


def test_gl_coset_zero_when_index_empty():
    gl = GroupId(GroupKind.TWISTED_GL, 2)
    for u in range(1, P):
        for a in range(1, P):
            if (K.coerce(a) * K.coerce(u)).is_square():
                continue
            el = CharElement(gl, family_matrix(gl, P, u, "minus"), coset="phi", phi_u=u)
            params = SSCParams(gl, a, zeta=gl_zeta(K))
            assert char_brute_force(params, el).value == 0
            assert char_closed_form(params, describe(el)).value == 0


def test_central_sign_equivariance():
    sp = GroupId(GroupKind.SP, 2)
    plus = CharElement(sp, family_matrix(sp, P, 1))
    minus = CharElement(sp, family_matrix(sp, P, 1, "minus"))
    for xi in (1, -1):
        params = SSCParams(sp, 1, xi, 0)
        vplus = char_brute_force(params, plus).value
        vminus = char_brute_force(params, minus).value
        assert abs(vminus - xi * vplus) < 1e-9


def test_pm_combination():
    """Sum and difference of the two packet members at an affine generic
    element reduce to the plain and the quadratic-twisted sums."""
    sp = GroupId(GroupKind.SP, 2)
    k = K
    w0 = k.omega0()
    for u in (1, 2, 3, 4):
        el = CharElement(sp, family_matrix(sp, P, u))
        a = 2
        p0 = SSCParams(sp, a, 1, 0)
        p1 = SSCParams(sp, (a * pow(k.eps.a, -1, P)) % P, 1, 1)
        v0 = char_brute_force(p0, el).value
        v1 = char_brute_force(p1, el).value
        h = describe(el).components
        alpha = k.coerce(a) * h[0] ** 2 * h[1] * h[2]
        ksum = kloosterman_eval(sp_spec(k, 2), alpha)
        kdiff = w0(k.coerce(a) * h[2]) * kloosterman_eval(sp_spec(k, 2, twisted=True), alpha)
        assert abs((v0 + v1) - ksum) < 1e-9
        assert abs((v0 - v1) - kdiff) < 1e-9


def test_random_affine_generic_deterministic():
    sp = GroupId(GroupKind.SP, 2)
    e1 = random_affine_generic(sp, P, random.Random(42))
    e2 = random_affine_generic(sp, P, random.Random(42))
    assert describe(e1).components == describe(e2).components


# formal degrees -----------------------------------------------------------------


def test_formal_degree_generic_cases():
    for n, q in ((2, 3), (3, 7), (4, 9)):
        rep = formal_degree_ineq(n, q)
        assert rep["holds"] and not rep["exceptional"]


def test_formal_degree_exceptional_case():
    rep = formal_degree_ineq(1, 3)
    assert rep["exceptional"]
    assert rep["bound"] == 4 and rep["cuspidal_dim"] == 2
    assert rep["holds"]


def test_min_depth():
    assert min_depth(GroupId(GroupKind.SP, 3)) == Fraction(1, 6)
    assert min_depth(GroupId(GroupKind.GL, 5)) == Fraction(1, 5)
    assert min_depth(GroupId(GroupKind.SO_UR, 2)) == Fraction(1, 4)
    assert min_depth(GroupId(GroupKind.SO_SPL, 3)) == Fraction(1, 6)


def test_coset_split_built_once_per_element(monkeypatch):
    """describe and every brute-force histogram read one g * phi^-1."""
    built = []
    phi_element_ = characters.phi_element

    def counting(*args):
        built.append(args)
        return phi_element_(*args)

    monkeypatch.setattr(characters, "phi_element", counting)
    for kind in (GroupKind.SO_SPL, GroupKind.SO_UR, GroupKind.TWISTED_GL):
        variant = "minus" if kind is GroupKind.TWISTED_GL else "phi_coset"
        el = family_element(kind, 2, 5, 2, variant)
        built.clear()
        desc = describe(el)
        for params in _params_grid(el.group, 5):
            assert abs(char_brute_force(params, el).value - char_closed_form(params, desc).value) < 1e-6
        assert len(built) == 1
