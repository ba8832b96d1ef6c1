import cmath
import random
from itertools import product

import pytest

from endolab import characters, sums
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
    random_affine_generic,
    torus_index_set,
    torus_ranges,
    zeta_unit,
)
from endolab.errors import InvalidParams, OutOfDomain
from endolab.families import FAMILY_VARIANTS, family_matrix, nu_of_u
from endolab.groups import GroupId, GroupKind, GroupMatrix, phi_element
from endolab.residue import eps_tilde, make_field, quad_extension
from endolab.suites import _params_grid
from endolab.sums import TOL, kl_simple, kloosterman_eval, sp_spec

P = 5
K = make_field(P)


# the inducing character's linear form ----------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("kappa", [0, 1])
def test_unramified_form_matches_extension_trace(p, kappa):
    """The middle-slot pair (c0, c1) reproduces Tr(eps~^kappa * h) = z + z^p,
    z = eps~^kappa * h, computed in F_{p^2} itself for every h; only eps~
    comes from ``residue.eps_tilde``, and its norm is checked here."""
    k = make_field(p)
    K = make_field(p, 2)
    eps_t = eps_tilde(p)
    assert eps_t ** (p + 1) == K.elem(k.eps.a)
    n = 3
    _, weights = _psi_form(SSCParams(GroupId(GroupKind.SO_UR, n), 1, kappa=kappa), p)
    c0, c1 = weights[n - 1 : n + 1]
    for h0 in range(p):
        for h1 in range(p):
            z = eps_t**kappa * K.elem(h0, h1)
            tr = z + z**p
            assert tr.b == 0 and (c0 * h0 + c1 * h1) % p == tr.a


def test_quad_extension_cached_per_field():
    for p in (3, 5, 7):
        assert quad_extension(make_field(p)) is quad_extension(make_field(p))
        assert quad_extension(make_field(p)).base is make_field(p)


# parameter validation ------------------------------------------------------


def test_params_validation():
    sp = GroupId(GroupKind.SP, 2)
    with pytest.raises(InvalidParams):
        SSCParams(sp, 1, xi=2)
    # zeta is a sign on every kind, read against zeta_unit: the value i of
    # twisted GL at q = 3 mod 4 is the base value, not a parameter
    for kind in FAMILY_VARIANTS:
        for zeta in (0.5, 1j, -1j, 0, 2):
            with pytest.raises(InvalidParams, match="zeta must be a sign"):
                SSCParams(GroupId(kind, 2), 1, zeta=zeta)
    # xi and zeta exist only on the kinds whose characters take them
    with pytest.raises(InvalidParams):
        SSCParams(GroupId(GroupKind.TWISTED_GL, 2), 1, xi=-1)
    for kind in (GroupKind.SP, GroupKind.SO_RAM):
        with pytest.raises(InvalidParams):
            SSCParams(GroupId(kind, 2), 1, zeta=-1)


def test_params_store_signs_as_ints():
    """A float, complex or bool sign is stored as its int twin, so parameters
    that compare equal also have equal reprs."""
    gl = GroupId(GroupKind.TWISTED_GL, 2)
    zeta = SSCParams(gl, 1, zeta=-1.0).zeta
    assert type(zeta) is int and zeta == -1
    xi = SSCParams(GroupId(GroupKind.SO_SPL, 2), 1, xi=True).xi
    assert type(xi) is int and xi == 1
    kappa = SSCParams(GroupId(GroupKind.SP, 2), 1, kappa=1.0).kappa
    assert type(kappa) is int and kappa == 1
    for zeta in (-1.0, -1 + 0j):
        assert repr(SSCParams(gl, 1, zeta=zeta)) == repr(SSCParams(gl, 1, zeta=-1))


# the inducing character ------------------------------------------------------


def test_affine_char_at_central_minus_one():
    sp = GroupId(GroupKind.SP, 2)
    minus = GroupMatrix(sp, P, [[-int(i == j) for j in range(4)] for i in range(4)])
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
            alpha = (K.eps**kappa).a
            beta = (-K.coerce(a).inv()).a
            ph = phi_element(so, P, alpha, beta)
            for zeta in (1, -1):
                params = SSCParams(so, a, 1, kappa, zeta)
                el = CharElement(so, ph, (alpha, beta))
                assert abs(affine_char_eval(params, el) - zeta) < 1e-12


@pytest.mark.parametrize("kind", [GroupKind.TWISTED_GL, GroupKind.SO_RAM])
def test_kappa_is_refused_where_the_kind_has_none(kind):
    gid = GroupId(kind, 2)
    assert SSCParams(gid, 1, kappa=0).kappa == 0
    with pytest.raises(InvalidParams):
        SSCParams(gid, 1, kappa=1)


def test_affine_char_out_of_domain():
    sp = GroupId(GroupKind.SP, 2)
    # diag(p, 1, 1, 1/p), written at scale 1
    d = GroupMatrix(sp, P, [[P * P, 0, 0, 0], [0, P, 0, 0], [0, 0, P, 0], [0, 0, 0, 1]], 1)
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
        el = CharElement(gl, family_matrix(gl, P, u, "minus"), (u,))
        for a in range(1, P):
            reps = torus_index_set(SSCParams(gl, a), el)
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
            el = CharElement(gl, family_matrix(gl, P, u, "minus"), (u,))
            params = SSCParams(gl, a)
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
        ksum = kloosterman_eval(sp_spec(k, 2, twisted=False), alpha)
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
    # the minimal positive depth is 1/h for the Coxeter number h
    assert GroupId(GroupKind.SP, 3).coxeter == 6
    assert GroupId(GroupKind.GL, 5).coxeter == 5
    assert GroupId(GroupKind.SO_UR, 2).coxeter == 4
    assert GroupId(GroupKind.SO_SPL, 3).coxeter == 6


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


@pytest.mark.parametrize("kind", list(FAMILY_VARIANTS))
def test_psi_sum_memo_is_keyed_by_value(kind):
    """One element evaluated over its whole parameter grid, a descending and
    kappa = 1 before kappa = 0, gives for every tuple exactly the value of a
    fresh element: the per-element psi-sums are keyed by (kappa, a mod p)."""
    q, n, u = 5, 2, 2
    for variant in FAMILY_VARIANTS[kind]:
        el = family_element(kind, n, q, u, variant)
        grid = sorted(_params_grid(el.group, q), key=lambda s: (-s.a, -s.kappa))
        values = set()
        for params in grid:
            value = char_brute_force(params, el).value
            assert value == char_brute_force(params, family_element(kind, n, q, u, variant)).value
            values.add(value)
        assert len(values) > 1


@pytest.mark.parametrize("kind", list(FAMILY_VARIANTS))
def test_negative_valuation_entry_is_out_of_domain(kind):
    """An entry p^-1 puts the element outside the character's domain on every
    kind; the brute-force route must refuse it, not rescale it."""
    el = family_element(kind, 2, 5, 1, "plus")
    g = el.matrix
    rows = [[5 * x for x in row] for row in g.a]  # the matrix at scale 1
    rows[0][0] = 1
    bad = CharElement(el.group, GroupMatrix(el.group, 5, rows, g.s + 1, g.prec + 1))
    with pytest.raises(OutOfDomain):
        char_brute_force(SSCParams(el.group, 1), bad)


def test_brute_force_route_reads_no_closed_form(monkeypatch):
    """The brute-force route evaluates every kind's families and a random
    element with the Kloosterman evaluators, the spec builders and the closed
    form disabled."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the brute-force route reached the closed-form side")

    monkeypatch.setattr(characters, "kloosterman_eval", forbidden)
    monkeypatch.setattr(sums, "kloosterman_table", forbidden)
    monkeypatch.setattr(characters, "char_closed_form", forbidden)
    for builder in ("kl_simple", "sp_spec", "so_split_spec", "so_unramified_spec"):
        monkeypatch.setattr(characters, builder, forbidden)
        monkeypatch.setattr(sums, builder, forbidden)
    q, n = 5, 2
    rng = random.Random(0)
    for kind, variants in FAMILY_VARIANTS.items():
        elements = [family_element(kind, n, q, u, v) for u in range(1, q) for v in variants]
        nu = nu_of_u(K, n, 1) if kind is GroupKind.SO_RAM else 0
        elements.append(random_affine_generic(GroupId(kind, n, nu), q, rng))
        for el in elements:
            for params in _params_grid(el.group, q):
                assert isinstance(char_brute_force(params, el).value, complex)


def _tuple_walk(params, el, hist):
    """(psi-sum, sign-weighted count) over a histogram, one tuple at a time:
    psi of the whole form at each slot-residue tuple, on twisted GL times w0
    (read from the character) at its central residue."""
    p = el.matrix.p
    k, weights = _psi_form(params, p)
    w0 = k.omega0()
    total, size = 0j, 0
    for tup, count in hist.items():
        if el.group.kind is GroupKind.TWISTED_GL:
            z, *tup = tup
            count *= round(w0(k.elem(z)).real)
        form = sum(w * x for w, x in zip(weights, tup))
        total += count * cmath.exp(2j * cmath.pi * form / p)
        size += count
    return total, size


@pytest.mark.parametrize("q", [3, 5, 7])
@pytest.mark.parametrize("n", [2, 3])
def test_count_vector_is_exact_on_every_coset(n, q):
    """On every family element, plain coset and phi coset, and one random
    element per kind, at every (kappa, a): the count vector c of the folded
    table sums to the sign-weighted size of the torus index set (its plain
    size off twisted GL), and sum_r c[r] zeta^r is the tuple-by-tuple walk
    over that (kappa, a)'s own histogram.  c is None exactly where the index
    set is empty."""
    rng = random.Random(100 * n + q)
    for kind, variants in FAMILY_VARIANTS.items():
        gl = kind is GroupKind.TWISTED_GL
        nu = nu_of_u(make_field(q), n, 1) if kind is GroupKind.SO_RAM else 0
        elements = [family_element(kind, n, q, u, v) for u in range(1, q) for v in variants]
        elements.append(random_affine_generic(GroupId(kind, n, nu), q, rng))
        for el in elements:
            for kappa in (0, 1) if kind in characters.KAPPA_KINDS else (0,):
                for a in range(1, q):
                    params = SSCParams(el.group, a, kappa=kappa)
                    sign, hist = characters._histogram(params, el)
                    c_sign, counts = characters._psi_counts(params, el)
                    assert c_sign == sign
                    if not hist:
                        assert counts is None and not torus_index_set(params, el)
                        continue
                    assert len(counts) == q and all(type(c) is int for c in counts)
                    walk, size = _tuple_walk(params, el, hist)
                    assert sum(counts) == size
                    if not gl:
                        assert size == len(torus_index_set(params, el))
                    value = sum(c * cmath.exp(2j * cmath.pi * r / q) for r, c in enumerate(counts))
                    assert abs(value - walk) <= 1e-12, (kind.value, el.phi, kappa, a)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("n", [2, 3])
def test_family_elements_certify_the_digits_the_brute_force_route_reads(n, p):
    """The brute-force route reads the h-part mod p^4 on every kind; each
    family element, matrix and h-part, must certify those digits, so one more
    product on the path fails here, not with PrecisionExhausted at run time.
    The message is the witness (kind, variant, u, prec - s)."""
    for kind, variants in FAMILY_VARIANTS.items():
        for u in range(1, p):
            for variant in variants:
                el = family_element(kind, n, p, u, variant)
                for g in (el.matrix, el.h_part):
                    certified = g.prec - g.s
                    assert certified >= 4, (kind.value, variant, u, certified)


@pytest.mark.parametrize("q, zeta", [(7, 1.0), (7, -1.0), (5, 1j), (5, -1j), (7, 0.5)])
def test_both_routes_refuse_a_twisted_linear_zeta_off_w0_minus_one(q, zeta):
    """zeta^2 = w0(-1) on twisted GL: -1 at q = 7 and 1 at q = 5.  The routes
    apply zeta * zeta_unit, so no value off w0(-1) reaches them: a zeta that
    is not a sign is refused when the parameters are built, and a sign is
    applied as +-zeta_unit, whose square is w0(-1), on which both routes agree."""
    w0_minus_one = 1 if q % 4 == 1 else -1
    for variant in ("plus", "minus"):
        el = family_element(GroupKind.TWISTED_GL, 2, q, 1, variant)
        if zeta not in (1, -1):
            with pytest.raises(InvalidParams, match="zeta must be a sign"):
                SSCParams(el.group, 2, zeta=zeta)
            continue
        params = SSCParams(el.group, 2, zeta=zeta)
        applied = params.zeta * zeta_unit(GroupKind.TWISTED_GL, q)
        assert applied**2 == w0_minus_one
        bf = char_brute_force(params, el).value
        assert abs(bf - char_closed_form(params, describe(el)).value) <= TOL, (q, zeta, variant)


# the per-slot tables against per-conjugate conjugation ---------------------------
#
# The two histograms below are the route before the per-slot tables: every torus
# conjugate is built in full and each slot residue read off it.  The tables must
# give the same dict, in the same insertion order, so every psi-sum adds the same
# terms in the same order.


def _reference_slot_residue(m, mod, p, slot, pre=1, post=1):
    """Residue of entry pre*m[i][j]*post at its slot level."""
    i, j, piw = slot
    v = (pre * m[i][j] * post) % mod
    return (v // p**piw) % p


def _reference_standard_histogram(params: SSCParams, element: CharElement):
    """(sign, histogram): the sign of the +-I+ coset and the slot residues of
    the torus conjugates of the I+ part."""
    group = params.group
    p = element.matrix.p
    m, mod = characters._int_rows(element.h_part, 4)
    sign = 1
    d0 = m[0][0] % p
    if d0 == p - 1:
        sign = -1
        m = [[(-x) % mod for x in row] for row in m]
    elif d0 != 1:
        raise OutOfDomain("element is not in the +-coset of I+")
    slots = group.component_slots()
    k = make_field(p)
    eps = k.eps.a
    hist: dict = {}
    for rep in torus_index_set(params, element):
        if group.kind is GroupKind.SO_UR:
            t = list(rep[:-1])
            tt = rep[-1]
            mid = tt if isinstance(tt, tuple) else (tt % p, 0)
            diag = t + [None, None] + [pow(x, -1, mod) for x in reversed(t)]
        else:
            t = list(rep)
            if group.kind is GroupKind.SO_RAM:
                diag = t + [1, 1] + [pow(x, -1, mod) for x in reversed(t)]
            else:
                diag = t + [pow(x, -1, mod) for x in reversed(t)]
            mid = None
        vals = []
        for slot in slots:
            if isinstance(slot[0], tuple):
                (i1, j1, _), (i2, j2, _) = slot
                x, y = mid
                yinv = (x, (-y) % p)
                a1 = (
                    diag[i1]
                    * (m[i1][j1] * yinv[0] + m[i1][j2] * ((eps * yinv[1]) % p))
                ) % mod
                a2 = (diag[i1] * (m[i1][j1] * yinv[1] + m[i1][j2] * yinv[0])) % mod
                vals += (a1 % p, a2 % p)
            else:
                i, j, piw = slot
                pre = diag[i] if diag[i] is not None else 1
                post = pow(diag[j], -1, mod) if diag[j] is not None else 1
                vals.append(_reference_slot_residue(m, mod, p, (i, j, piw), pre=pre, post=post))
        tup = tuple(vals)
        hist[tup] = hist.get(tup, 0) + 1
    return sign, hist


def _reference_gl_histogram(params: SSCParams, element: CharElement):
    """(1, histogram) of (central residue, slot residues) over the torus
    conjugates, which lie in Z * I+."""
    group = params.group
    p = element.matrix.p
    n = group.n
    N = 2 * n
    m, mod = characters._int_rows(element.matrix, 5)
    slots = group.component_slots()
    a_lift = params.a % p
    hist: dict = {}
    for rep in torus_index_set(params, element):
        if not element.phi:
            ts = list(rep[:-1])
            z = rep[-1]
            t = [0] * N
            for i in range(n - 1):
                t[i] = ts[i]
            t[n - 1] = 1
            for i in range(n, N):
                t[i] = (z * pow(t[N - 1 - i], -1, mod)) % mod
        else:
            au = (params.a * element.phi[0]) % p
            ts = list(rep[:-1]) + [rep[-1] % p]
            t = [0] * N
            for i in range(n):
                t[i] = ts[i]
            t[N - 1] = 1
            for i in range(n, N - 1):
                t[i] = (au * pow(t[N - 2 - i], -1, mod)) % mod
        conj = [
            [(t[i] * m[i][j] * t[N - 1 - j]) % mod for j in range(N)]
            for i in range(N)
        ]
        if element.phi:
            x = [[0] * N for _ in range(N)]
            for j in range(N):
                for i in range(1, N):
                    x[i][j] = conj[i - 1][j]
                x[0][j] = (a_lift * (conj[N - 1][j] // p)) % (mod // p)
            conj = x
            mod_eff = mod // p
        else:
            mod_eff = mod
        z_res = conj[0][0] % p
        if z_res == 0:
            raise OutOfDomain("conjugate fell outside Z*I+")
        zinv = pow(z_res, -1, mod_eff)
        vals = tuple(
            _reference_slot_residue(conj, mod_eff, p, slot, pre=zinv) for slot in slots
        )
        tup = (z_res,) + vals
        hist[tup] = hist.get(tup, 0) + 1
    return 1, hist


def _oracle_elements(kind, n, q):
    """The family elements of the char_oracle grid and, at q = 3, seeded
    random elements drawn as char_oracle_suite draws them."""
    elements = [family_element(kind, n, q, u, var) for u in range(1, q) for var in FAMILY_VARIANTS[kind]]
    if q == 3:
        rng = random.Random(1000 * n + q)
        for _ in range(3):
            gid = GroupId(kind, n, rng.choice((0, 1)) if kind is GroupKind.SO_RAM else 0)
            elements.append(random_affine_generic(gid, q, rng))
    return elements


@pytest.mark.parametrize("q", [3, 5, 7])
@pytest.mark.parametrize("n", [2, 3])
def test_slot_tables_give_the_per_conjugate_histograms(n, q):
    """Sign and histogram, compared as ordered item lists, at every element
    and (kappa, a) of the oracle grid."""
    compared = 0
    for kind in FAMILY_VARIANTS:
        gl = kind is GroupKind.TWISTED_GL
        reference = _reference_gl_histogram if gl else _reference_standard_histogram
        for el in _oracle_elements(kind, n, q):
            # a histogram reads the parameters through (kappa, a mod q) only,
            # as the route's per-element psi-sums do: one tuple per key
            keys = {(s.kappa, s.a % q): s for s in _params_grid(el.group, q)}
            for params in keys.values():
                sign, hist = characters._histogram(params, el)
                ref_sign, ref_hist = reference(params, el)
                assert sign == ref_sign
                assert list(hist.items()) == list(ref_hist.items()), (kind.value, params)
                compared += bool(hist)
    assert compared


@pytest.mark.parametrize("n, q", [(4, 3), (2, 11), (2, 13)])
def test_twisted_linear_slot_tables_at_the_larger_cells(n, q):
    """The one walk against the per-representative twisted linear walk at
    n = 4 and at q = 11, 13: every family element, plain coset and phi
    coset, three seeded random elements, and each of these times the
    central unit 2, whose h-part has h00 = 2 mod q, at every a, as ordered
    item lists."""
    kind = GroupKind.TWISTED_GL
    rng = random.Random(1000 * n + q)
    elements = [family_element(kind, n, q, u, var) for u in range(1, q) for var in FAMILY_VARIANTS[kind]]
    elements += [random_affine_generic(GroupId(kind, n), q, rng) for _ in range(3)]
    for el in list(elements):
        g = el.matrix
        scaled = GroupMatrix(g.group, q, [[2 * x for x in row] for row in g.a], g.s, g.prec)
        elements.append(CharElement(el.group, scaled, el.phi))
    compared = set()
    for el in elements:
        for a in range(1, q):
            params = SSCParams(el.group, a)
            sign, hist = characters._histogram(params, el)
            assert (sign, list(hist.items())) == (1, list(_reference_gl_histogram(params, el)[1].items()))
            if hist:
                compared.add((bool(el.phi), el.h_part.a[0][0] % q))
    assert compared == {(False, 1), (True, 1), (False, 2), (True, 2)}


@pytest.mark.parametrize("kind", list(FAMILY_VARIANTS))
def test_the_walk_counts_each_representative_of_the_index_set(kind, monkeypatch):
    """char_brute_force on a fresh family element, plain coset and phi coset,
    reads its conjugates from ``torus_index_set``, once, and its histogram
    counts each representative returned once."""
    q, n, u = 5, 2, 2
    returned, counted = [], []
    index_set, histogram = characters.torus_index_set, characters._histogram

    def recorded_index_set(params, el):
        reps = index_set(params, el)
        returned.append(len(reps))
        return reps

    def recorded_histogram(params, el):
        sign, hist = histogram(params, el)
        counted.append(sum(hist.values()))
        return sign, hist

    monkeypatch.setattr(characters, "torus_index_set", recorded_index_set)
    monkeypatch.setattr(characters, "_histogram", recorded_histogram)
    for variant in FAMILY_VARIANTS[kind]:
        el = family_element(kind, n, q, u, variant)
        # the first (kappa, a) whose index set is not empty
        kappas = (0, 1) if kind in characters.KAPPA_KINDS else (0,)
        grid = (SSCParams(el.group, a, kappa=kappa) for kappa in kappas for a in range(1, q))
        params = next(s for s in grid if all(torus_ranges(s, el)))
        returned.clear()
        counted.clear()
        char_brute_force(params, el)
        assert returned == counted and returned[0] > 0, (variant, returned, counted)


@pytest.mark.parametrize("kind", list(FAMILY_VARIANTS))
def test_a_perturbed_digit_fails_the_oracle_comparison(kind, monkeypatch):
    """One digit more in the pi-scaled slot entry of the h-part, the matrix
    the brute-force route conjugates, moves the brute-force values off the
    closed form of the unperturbed element, after the same element was
    evaluated: no slot table outlives its histogram."""
    q, n, u = 5, 2, 2
    el = family_element(kind, n, q, u, "plus")
    desc = describe(el)
    grid = _params_grid(el.group, q)

    def worst(element):
        return max(abs(char_brute_force(s, element).value - char_closed_form(s, desc).value) for s in grid)

    assert worst(el) < 1e-6
    fresh = family_element(kind, n, q, u, "plus")
    g = fresh.h_part
    i, j, piw = el.group.component_slots()[-1]
    rows = [list(row) for row in g.a]
    rows[i][j] += q**piw
    monkeypatch.setattr(fresh, "h_part", GroupMatrix(g.group, q, rows, g.s, g.prec))
    assert worst(fresh) > 1e-6


def _index_set_size(kind, n, q):
    """The size of the plain coset's torus index set: t_1 up to sign on sp,
    so_spl and so_ur, and q + 1 norm-one middles on so_ur."""
    return {
        GroupKind.SP: (q - 1) ** n // 2,
        GroupKind.SO_RAM: (q - 1) ** (n - 1),
        GroupKind.SO_SPL: (q - 1) ** (n + 1) // 2,
        GroupKind.SO_UR: (q - 1) ** n * (q + 1) // 2,
        GroupKind.TWISTED_GL: (q - 1) ** n,
    }[kind]


@pytest.mark.parametrize("kind", list(FAMILY_VARIANTS))
def test_torus_index_set_is_the_product_of_its_ranges(kind):
    """At every element and parameter tuple of the oracle grid the index set
    is the product of distinct-valued ranges, of the lemma's size.  A phi
    coset's set, one x1 and two +-w values, is empty at some parameters and
    full at others."""
    for n in (2, 3):
        for q in (3, 5, 7):
            coset_sizes = set()
            for el in _oracle_elements(kind, n, q):
                for params in _params_grid(el.group, q):
                    ranges = torus_ranges(params, el)
                    reps = torus_index_set(params, el)
                    assert reps == list(product(*ranges))
                    assert all(len(set(r)) == len(r) for r in ranges)
                    if el.phi:
                        coset_sizes.add(len(reps))
                    else:
                        assert len(reps) == _index_set_size(kind, n, q), (kind.value, n, q)
            if kind in (GroupKind.TWISTED_GL, GroupKind.SO_SPL, GroupKind.SO_UR):
                assert coset_sizes == {0, 2 * (q - 1) ** (n - 1)}, (kind.value, n, q)
