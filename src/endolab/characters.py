"""Simple-supercuspidal parameter sets, affine generic characters, and the two
independent routes to character values at "shallow" elements.

``char_brute_force`` runs the compact-induction character formula: it sums the
inducing character over the finite torus index set attached to the element's
coset, conjugating honest matrix data.  ``char_closed_form`` evaluates the
matching Kloosterman/Gauss expression through :mod:`endolab.sums`.  The two
must agree; the test-suite grid enforces it.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import EndolabError, HypothesisFailed, InvalidParams, OutOfDomain
from .families import base_field, family_matrix, nu_of_u, so_even_phi_params
from .groups import (
    SAMPLE_TRIES,
    GroupId,
    GroupKind,
    GroupMatrix,
    Level,
    is_affine_generic,
    iwahori_level,
    iwahori_mask_at,
    phi_element,
    sample_iplus,
    simple_affine_components,
    theta,
)
from .residue import make_field, norm_trace, quad_extension
from .sums import (
    gl_theta_spec,
    kl_simple,
    kloosterman_eval,
    so_split_spec,
    so_unramified_spec,
    sp_spec,
)


@dataclass(frozen=True)
class SSCParams:
    """Parameters of a simple supercuspidal representation.

    The meaning of the fields depends on the group kind: the twisted linear
    group uses (a, zeta) with the quadratic central character implied; the
    symplectic group uses (xi, kappa, a); the ramified even orthogonal group
    (xi, a); the split/unramified even orthogonal groups (xi, kappa, a, zeta).
    """

    group: GroupId
    a: int
    xi: int = 1
    kappa: int = 0
    zeta: complex = 1.0

    def __post_init__(self):
        if self.xi not in (1, -1):
            raise InvalidParams("xi must be a sign")
        if self.kappa not in (0, 1):
            raise InvalidParams("kappa must be 0 or 1")
        if self.group.kind in (GroupKind.SO_SPL, GroupKind.SO_UR):
            if self.zeta not in (1, -1):
                raise InvalidParams("zeta must be a sign here")

    def validate_theta_stable(self, p: int, tol: float = 1e-9):
        """Twisted-GL data must satisfy zeta^2 = w0(-1)."""
        k = make_field(p)
        w0 = k.omega0()
        if abs(self.zeta**2 - w0(k.coerce(-1))) > tol:
            raise InvalidParams("zeta^2 must equal w0(-1)")


@dataclass(frozen=True)
class CharValue:
    value: complex
    provenance: str


@dataclass
class CharElement:
    """An element of the character's domain: +-h * phi^k with h in I+."""

    group: GroupId
    matrix: GroupMatrix
    coset: str = "plain"  # "plain" or "phi"
    phi_u: int | None = None  # twisted-GL coset parameter
    phi_ab: tuple | None = None  # even-orthogonal coset parameters
    # slot-residue histograms of the brute-force route, keyed by coset data
    _hists: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def h_part(self) -> GroupMatrix:
        """The matrix with its phi factor split off: g * phi^-1 on the
        even-orthogonal cosets, phi^-1 * g on the twisted linear coset, g
        off the cosets."""
        if self.coset != "phi":
            return self.matrix
        if self.group.kind is GroupKind.TWISTED_GL:
            phi = phi_element(self.group, self.matrix.base, self.phi_u)
            return phi.inv() * self.matrix
        phi = phi_element(self.group, self.matrix.base, *self.phi_ab)
        return self.matrix * phi.inv()


def family_element(kind: GroupKind, n: int, q: int, u: int, variant: str) -> CharElement:
    """The ``variant`` family element at the unit u, with the coset data of
    the phi-coset families (the twisted linear minus family included)."""
    nu = nu_of_u(make_field(q), n, u) if kind is GroupKind.SO_RAM else 0
    gid = GroupId(kind, n, nu)
    g = family_matrix(gid, q, u, variant)
    if variant == "phi_coset":
        return CharElement(gid, g, coset="phi", phi_ab=so_even_phi_params(gid, q, u))
    if variant == "minus" and kind is GroupKind.TWISTED_GL:
        return CharElement(gid, g, coset="phi", phi_u=u)
    return CharElement(gid, g)


# ---------------------------------------------------------------------------
# reduction of tower matrices to integer matrices


def to_int_matrix(g: GroupMatrix, digits: int = 4):
    """(scale, rows): rows are integers representing pi^scale * g mod p^digits."""
    base = g.base
    p = base.p
    scale = 0
    for row in g.entries:
        for x in row:
            if not x.is_zero() and x.phi_valuation() < 0:
                scale = max(scale, -x.phi_valuation())
    mod = p ** (digits + scale)
    out = []
    for row in g.entries:
        r = []
        for x in row:
            if x.is_zero():
                r.append(0)
            else:
                c = x.unit[0] * p ** (x.shift + scale)
                r.append(c % mod)
        out.append(r)
    return scale, out, mod


def _slot_residue(m, scale, mod, p, slot, pre=1, post=1):
    """Residue of entry pre*m[i][j]*post at its slot level."""
    i, j, piw = slot
    v = (pre * m[i][j] * post) % mod
    return (v // p ** (piw + scale)) % p


# ---------------------------------------------------------------------------
# the inducing character evaluated through residue data


def _psi_form(params: SSCParams, p: int):
    """(k, weights): the linear form pairing the component values with the
    additive character of k, one int weight per slot.  The unramified middle
    slot h0 + h1*s takes two, (c0, c1), with Tr(eps~^kappa * h) = c0*h0 + c1*h1."""
    k = make_field(p)
    n = params.group.n
    kind = params.group.kind
    a = params.a % p
    eps = k.eps.a
    if kind is GroupKind.TWISTED_GL:
        return k, [1] * (2 * n - 1) + [a]
    if kind is GroupKind.SP:
        return k, [1] * (n - 1) + [pow(eps, params.kappa, p)] + [a]
    if kind is GroupKind.SO_RAM:
        return k, [1] * (n - 1) + [a]
    if kind is GroupKind.SO_SPL:
        return k, [1] * n + [pow(eps, params.kappa, p)] + [a]
    if kind is GroupKind.SO_UR:
        # the trace form read off on the basis 1, s of the quadratic extension
        ext = quad_extension(k)
        one, s = (k.one, k.zero), (k.zero, k.one)
        w = ext.eps_tilde() if params.kappa else one
        mid = [ext.trace(ext.mul(w, e)).a for e in (one, s)]
        return k, [1] * (n - 1) + mid + [a]
    raise InvalidParams(f"no affine generic character for {kind}")


def _psi_value(form, slot_values):
    """psi of the weighted component sum; slot values are ints, laid out as
    the form's weights (the unramified middle slot as plain, sqrt-eps part)."""
    k, weights = form
    return k._add_roots[sum(map(operator.mul, weights, slot_values)) % k.p]


# ---------------------------------------------------------------------------
# torus index sets


def torus_index_set(params: SSCParams, element: CharElement):
    """Representatives of the finite index set of the character formula.

    Returned entries are the diagonal data of the conjugating elements: plain
    tuples (t_1, ..) of unit residues, plus the constrained branches for the
    coset cases.  Raises when the hypotheses of the matching index-set lemma
    fail, and returns [] when the set is genuinely empty.
    """
    p = element.matrix.base.p
    k = make_field(p)
    n = params.group.n
    units = [x.a for x in k.units()]
    half = [x.a for x in k.units() if k.dlog(x) < (k.q - 1) // 2]
    kind = params.group.kind

    def tuples(m):
        out = [()]
        for _ in range(m):
            out = [t + (u,) for t in out for u in units]
        return out

    if kind is GroupKind.SP:
        return [h + t for h in [(x,) for x in half] for t in tuples(n - 1)]
    if kind is GroupKind.SO_RAM:
        return tuples(n - 1)
    if kind is GroupKind.SO_SPL and element.coset == "plain":
        return [h + t for h in [(x,) for x in half] for t in tuples(n)]
    if kind is GroupKind.SO_UR and element.coset == "plain":
        ext_units = _norm_one(p)
        return [
            h + t + (tt,)
            for h in [(x,) for x in half]
            for t in tuples(n - 1)
            for tt in ext_units
        ]
    if kind is GroupKind.TWISTED_GL and element.coset == "plain":
        # (t_1..t_{n-1}, z) with t_n = 1
        return [t + (z,) for t in tuples(n - 1) for z in units]
    if kind is GroupKind.TWISTED_GL:
        au = k.coerce(params.a * element.phi_u)
        if not au.is_square():
            return []
        w = k.sqrt(au)
        return [t + (tn,) for t in tuples(n - 1) for tn in (w.a, (-w).a)]
    if kind is GroupKind.SO_SPL:
        alpha, beta = element.phi_ab
        c1 = k.coerce(-params.a) * k.coerce(beta)
        c2 = k.coerce(alpha) * k.coerce(k.eps.a) ** (-params.kappa)
        if not (c1.is_square() and c2.is_square()):
            return []
        x1 = k.sqrt(c1)
        xn1 = k.sqrt(c2)
        return [
            (x1.a,) + t + (s,)
            for t in tuples(n - 1)
            for s in (xn1.a, (-xn1).a)
        ]
    if kind is GroupKind.SO_UR:
        alpha, beta = element.phi_ab
        if params.kappa != 0 or not _is_one(alpha):
            return []
        c1 = k.coerce(-params.a) * k.coerce(beta)
        if not c1.is_square():
            return []
        x1 = k.sqrt(c1)
        return [(x1.a,) + t + (s,) for t in tuples(n - 1) for s in (1, -1)]
    raise HypothesisFailed(f"no index set for {kind}/{element.coset}")


def _w0_sign(k, x) -> int:
    return 1 if k.dlog(k.coerce(x)) % 2 == 0 else -1


def _is_one(alpha):
    if hasattr(alpha, "a"):
        return alpha.a == 1 and alpha.b == 0
    return alpha == 1


def _norm_one(p: int):
    """Pairs (x, y) mod p with x^2 - eps*y^2 = 1."""
    k = make_field(p)
    eps = k.eps.a
    out = []
    for x in range(p):
        for y in range(p):
            if (x * x - eps * y * y) % p == 1:
                out.append((x, y))
    return out


# ---------------------------------------------------------------------------
# brute-force character values


def char_brute_force(params: SSCParams, element: CharElement) -> CharValue:
    kind = params.group.kind
    if kind is GroupKind.TWISTED_GL:
        val = _brute_twisted_gl(params, element)
    else:
        val = _brute_standard(params, element)
    return CharValue(val, "brute_force")


def _standard_histogram(params: SSCParams, element: CharElement):
    """Slot-residue histogram of the torus conjugates, cached per element.

    The histogram (and the sign of the I+ part) does not depend on the
    parameters except through the coset constraints, which enter the cache
    key; evaluating the character for each parameter tuple is then a small
    weighted sum over the histogram.
    """
    group = params.group
    p = element.matrix.base.p
    key = None
    if element.coset == "phi":
        key = (params.a % p, params.kappa)
    cache = element._hists
    if key in cache:
        return cache[key]
    scale, m, mod = to_int_matrix(element.h_part, 4)
    if scale != 0:
        raise OutOfDomain("unexpected negative-valuation entry in the I+ part")
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
                vals.append(
                    _slot_residue(m, 0, mod, p, (i, j, piw), pre=pre, post=post)
                )
        tup = tuple(vals)
        hist[tup] = hist.get(tup, 0) + 1
    cache[key] = (sign, hist)
    return sign, hist


def _brute_standard(params: SSCParams, element: CharElement) -> complex:
    sign, hist = _standard_histogram(params, element)
    if not hist:
        return 0.0 + 0.0j
    zeta_fac = params.zeta if element.coset == "phi" else 1.0
    central = params.xi if (sign < 0) else 1
    form = _psi_form(params, element.matrix.base.p)
    total = 0.0 + 0.0j
    for tup, count in hist.items():
        total += count * _psi_value(form, tup)
    return central * zeta_fac * total


def _gl_histogram(params: SSCParams, element: CharElement):
    group = params.group
    base = element.matrix.base
    p = base.p
    n = group.n
    N = 2 * n
    key = ("gl", params.a % p) if element.coset == "phi" else ("gl", None)
    cache = element._hists
    if key in cache:
        return cache[key]
    scale, m, mod = to_int_matrix(element.matrix, 5)
    slots = group.component_slots()
    a_lift = params.a % p
    hist: dict = {}
    for rep in torus_index_set(params, element):
        if element.coset == "plain":
            ts = list(rep[:-1])
            z = rep[-1]
            t = [0] * N
            for i in range(n - 1):
                t[i] = ts[i]
            t[n - 1] = 1
            for i in range(n, N):
                t[i] = (z * pow(t[N - 1 - i], -1, mod)) % mod
        else:
            au = (params.a * element.phi_u) % p
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
        if element.coset == "phi":
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
            _slot_residue(conj, 0, mod_eff, p, slot, pre=zinv) for slot in slots
        )
        tup = (z_res,) + vals
        hist[tup] = hist.get(tup, 0) + 1
    cache[key] = hist
    return hist


def _brute_twisted_gl(params: SSCParams, element: CharElement) -> complex:
    p = element.matrix.base.p
    k = make_field(p)
    w0 = k.omega0()
    hist = _gl_histogram(params, element)
    if not hist:
        return 0.0 + 0.0j
    form = _psi_form(params, p)
    total = 0.0 + 0.0j
    for tup, count in hist.items():
        z_res, vals = tup[0], tup[1:]
        total += count * w0(k.elem(z_res)) * _psi_value(form, vals)
    if element.coset == "phi":
        total *= params.zeta
    return total


# ---------------------------------------------------------------------------
# closed forms


@dataclass(frozen=True)
class ElementDescriptor:
    """Group kind, simple affine components, and coset data of an element."""

    group: GroupId
    components: tuple
    coset: str = "plain"
    phi_u: int | None = None
    phi_ab: tuple | None = None
    sign: int = 1


def describe(element: CharElement) -> ElementDescriptor:
    hpart = element.h_part
    sign = 1
    if element.group.kind is not GroupKind.TWISTED_GL and iwahori_level(hpart) < Level.IPLUS:
        neg = hpart.neg()
        if iwahori_level(neg) < Level.IPLUS:
            raise OutOfDomain("element is not in the character's domain")
        hpart, sign = neg, -1
    comps = tuple(simple_affine_components(hpart))
    return ElementDescriptor(
        element.group, comps, element.coset, element.phi_u, element.phi_ab, sign
    )


def char_closed_form(params: SSCParams, desc: ElementDescriptor) -> CharValue:
    kind = params.group.kind
    p = desc.components[0].field.p
    k = make_field(p)
    w0 = k.omega0()
    n = params.group.n
    a = k.coerce(params.a)
    eps_k = k.eps ** params.kappa
    sgn = params.xi if desc.sign < 0 else 1
    h = list(desc.components)
    if kind is GroupKind.SP:
        alpha = a * eps_k * h[-1]
        for i in range(n - 1):
            alpha = alpha * h[i] * h[i]
        alpha = alpha * h[n - 1]
        # the quadratic factor carries only a*h_0 (the constraint lives on
        # the single twisted variable), matching the index-set computation
        v = 0.5 * kloosterman_eval(sp_spec(k, n), alpha) + 0.5 * w0(
            a * h[-1]
        ) * kloosterman_eval(sp_spec(k, n, twisted=True), alpha)
        return CharValue(sgn * v, "closed_form")
    if kind is GroupKind.SO_RAM:
        alpha = a
        for x in h:
            alpha = alpha * x
        return CharValue(sgn * kloosterman_eval(kl_simple(k, n), alpha), "closed_form")
    if kind is GroupKind.SO_SPL and desc.coset == "plain":
        gamma = a * eps_k * h[0] * h[n - 1] * h[n] * h[n + 1]
        for i in range(1, n - 1):
            gamma = gamma * h[i] * h[i]
        v = 0.5 * kloosterman_eval(so_split_spec(k, n), gamma) + 0.5 * w0(
            eps_k * h[n - 1] * h[n]
        ) * kloosterman_eval(so_split_spec(k, n, twisted=True), gamma)
        return CharValue(sgn * v, "closed_form")
    if kind is GroupKind.SO_UR and desc.coset == "plain":
        nr, _ = norm_trace(h[n - 1])
        gamma = a * eps_k * h[0] * nr * h[n]
        for i in range(1, n - 1):
            gamma = gamma * h[i] * h[i]
        v = 0.5 * kloosterman_eval(so_unramified_spec(k, n), gamma) + 0.5 * w0(
            nr * eps_k
        ) * kloosterman_eval(so_unramified_spec(k, n, twisted=True), gamma)
        return CharValue(sgn * v, "closed_form")
    if kind is GroupKind.TWISTED_GL and desc.coset == "plain":
        pairs = [h[i] + h[2 * n - 2 - i] for i in range(n - 1)]
        if any(x.is_zero() for x in pairs) or h[-1].is_zero() or h[n - 1].is_zero():
            raise HypothesisFailed("the twisted norm is not affine generic")
        alpha = a * h[n - 1] * h[-1]
        for x in pairs:
            alpha = alpha * x * x
        v = w0(a * h[-1]) * kloosterman_eval(gl_theta_spec(k, n), alpha)
        return CharValue(sgn * v, "closed_form")
    if kind is GroupKind.TWISTED_GL:
        u = k.coerce(desc.phi_u)
        pairs = [h[i] + h[2 * n - 1 - i] for i in range(1, n)]
        if any(x.is_zero() for x in pairs) or (u * h[0] + h[-1]).is_zero():
            raise HypothesisFailed("the shifted twisted norm is not affine generic")
        au = a * u
        if not au.is_square():
            return CharValue(0.0 + 0.0j, "closed_form")
        v_root = k.sqrt(au)
        beta = (v_root * v_root * h[0] + a * h[-1]) / v_root
        for x in pairs:
            beta = beta * x
        val = params.zeta * (
            kloosterman_eval(kl_simple(k, n), beta)
            + kloosterman_eval(kl_simple(k, n), -beta)
        )
        return CharValue(sgn * val, "closed_form")
    if kind is GroupKind.SO_SPL:
        alpha, beta = (k.coerce(x) for x in desc.phi_ab)
        if _w0_sign(k, alpha) != (-1) ** params.kappa or _w0_sign(k, beta) != _w0_sign(
            k, -a.inv()
        ):
            return CharValue(0.0 + 0.0j, "closed_form")
        r1 = k.sqrt(-beta * a)
        r2 = k.sqrt(alpha * k.coerce(k.eps.a) ** (-params.kappa))
        delta = r1.inv() * r2.inv() * a * (-beta * h[0] + h[n + 1])
        for i in range(1, n - 1):
            delta = delta * h[i]
        delta = delta * (h[n - 1] + alpha * h[n])
        val = params.zeta * (
            kloosterman_eval(kl_simple(k, n), delta)
            + kloosterman_eval(kl_simple(k, n), -delta)
        )
        return CharValue(sgn * val, "closed_form")
    if kind is GroupKind.SO_UR:
        alpha, beta = desc.phi_ab
        beta = k.coerce(beta)
        if params.kappa != 0 or not _is_one(alpha):
            return CharValue(0.0 + 0.0j, "closed_form")
        if _w0_sign(k, beta) != _w0_sign(k, -a.inv()):
            return CharValue(0.0 + 0.0j, "closed_form")
        r1 = k.sqrt(-beta * a)
        _, tr = norm_trace(h[n - 1])
        delta = r1.inv() * a * (-beta * h[0] + h[n])
        for i in range(1, n - 1):
            delta = delta * h[i]
        delta = delta * tr
        val = params.zeta * (
            kloosterman_eval(kl_simple(k, n), delta)
            + kloosterman_eval(kl_simple(k, n), -delta)
        )
        return CharValue(sgn * val, "closed_form")
    raise HypothesisFailed(f"no closed form for {kind}/{desc.coset}")


def affine_char_eval(params: SSCParams, element: CharElement) -> complex:
    """Value of the inducing character itself at a domain element.

    This is the tests' direct evaluator of the inducing character, not a
    second ``describe``: it splits g * phi^-1 for every kind (the twisted
    linear coset included) and applies the central-sign rule to every kind.
    """
    p = element.matrix.base.p
    if element.coset == "phi":
        if params.group.kind is GroupKind.TWISTED_GL:
            phi = phi_element(params.group, element.matrix.base, element.phi_u)
        else:
            phi = phi_element(params.group, element.matrix.base, *element.phi_ab)
        hpart = element.matrix * phi.inv()
        zfac = params.zeta
    else:
        hpart = element.matrix
        zfac = 1.0
    lvl = iwahori_level(hpart)
    sign = 1
    if lvl < Level.IPLUS:
        neg = hpart.neg()
        if iwahori_level(neg) >= Level.IPLUS:
            hpart, sign = neg, -1
        else:
            raise OutOfDomain("element does not lie in the character's domain")
    comps = simple_affine_components(hpart)
    vals = []
    for c in comps:
        vals += c.key() if c.field.f == 2 else (c.a,)
    central = params.xi if sign < 0 else 1
    return central * zfac * _psi_value(_psi_form(params, p), vals)


# ---------------------------------------------------------------------------
# random affine generic elements


def _generic_in_iplus(g: GroupMatrix) -> bool:
    return iwahori_level(g) >= Level.IPLUS and is_affine_generic(g)


def random_affine_generic(group: GroupId, p: int, rng: random.Random):
    """A random affine generic element of I+ (meeting the group when it has a
    form), built from torus-conjugated family elements; a twisted linear
    element is an I+ draw whose twisted norm g*theta(g) is affine generic."""
    k = make_field(p)
    base = base_field(p)
    if group.kind is GroupKind.TWISTED_GL:
        mask = iwahori_mask_at(group, Fraction(1, group.coxeter))
        g = sample_iplus(group, base, mask, rng, lambda g: _generic_in_iplus(g * theta(g)))
        return CharElement(group, g)
    units = [x.a for x in k.units()]
    for _ in range(SAMPLE_TRIES):
        factors = []
        for _ in range(rng.randint(1, 2)):
            u = rng.choice(units)
            if group.kind is GroupKind.SO_RAM:
                nu = nu_of_u(k, group.n, u)
                if nu != group.nu_mu:
                    u = (u * k.eps.a) % p
            t = _random_torus(group, p, rng)
            tinv = [x.inv() for x in t]
            gm = family_matrix(group, p, u)
            # t g t^-1 for the diagonal t, entry by entry
            conj = [
                [ti * (x * tj) for x, tj in zip(row, tinv)] for ti, row in zip(t, gm.entries)
            ]
            factors.append(GroupMatrix(group, base, conj))
        g = factors[0]
        for f in factors[1:]:
            g = g * f
        try:
            if _generic_in_iplus(g):
                return CharElement(group, g)
        except EndolabError:
            continue
    raise HypothesisFailed("could not sample an affine generic element")


def _random_torus(group: GroupId, p: int, rng: random.Random):
    """The diagonal of an exact integral lift of a residue torus element."""
    base = base_field(p)
    N = group.size
    n = group.n
    diag = [None] * N
    rank = {GroupKind.SO_RAM: n - 1, GroupKind.SO_SPL: n + 1}.get(group.kind, n)
    for i in range(rank):
        t = rng.randrange(1, p)
        diag[i] = base.from_int(t)
        diag[N - 1 - i] = base.from_int(t).inv()
    if group.kind is GroupKind.SO_RAM:
        diag[n - 1] = base.one()
        diag[n] = base.one()
    elif group.kind is GroupKind.SO_UR:
        sgn = rng.choice([1, -1])
        diag[n] = base.from_int(sgn)
        diag[n + 1] = base.from_int(sgn)
    return diag


# ---------------------------------------------------------------------------
# formal degrees and depths


def sp_order(n: int, q: int) -> int:
    out = q ** (n * n)
    for i in range(1, n + 1):
        out *= q ** (2 * i) - 1
    return out


def formal_degree_ineq(n: int, q: int) -> dict:
    """Check that depth-zero cuspidal dimensions stay below the degree bound
    coming from the Iwahori volume, with the small exceptional case separate."""
    P = sp_order(n, q)
    U = q ** (n * n)
    torus = (q - 1) ** n
    report = {
        "n": n,
        "q": q,
        "parahoric_order": P,
        "unipotent_order": U,
        "torus_order": torus,
        "exceptional": False,
    }
    if torus >= 4:
        report["holds"] = 4 * U * U <= U * U * torus <= P
        return report
    # n = 1, q = 3: bound 4 against the cuspidal dimension 2
    report["exceptional"] = True
    bound = P // U // 2
    report["bound"] = bound
    report["cuspidal_dim"] = 2
    report["holds"] = 2 < bound
    return report


def min_depth(group: GroupId) -> Fraction:
    return Fraction(1, group.coxeter)
