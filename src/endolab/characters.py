"""Simple-supercuspidal parameter sets, affine generic characters, and the two
independent routes to character values at "shallow" elements.

``char_brute_force`` runs the compact-induction character formula: it sums the
inducing character over the finite torus index set attached to the element's
coset, conjugating honest matrix data.  Each slot residue of a conjugate
t * h * t^-1 reads at most two torus coordinates, so the route tabulates every
slot once per histogram over the values its coordinates take, and each
conjugate reads its slot tuple from these tables (on twisted GL, each
conjugate computes only its (0, 0) and slot entries).  The sum reads the
parameters only through (kappa, a mod p), so each element keeps one psi-sum
per such key and xi and zeta are applied to it afterwards.
``char_closed_form`` evaluates the matching Kloosterman/Gauss expression
through :mod:`endolab.sums`.  The two must agree; the test-suite grid enforces
it.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product, repeat

from .errors import EndolabError, HypothesisFailed, InvalidParams, NotInIplus, OutOfDomain
from .families import family_matrix, family_phi, nu_of_u
from .groups import (
    SAMPLE_TRIES,
    GroupId,
    GroupKind,
    GroupMatrix,
    Level,
    _slot_components,
    iwahori_level,
    iwahori_mask_at,
    phi_element,
    sample_iplus,
    simple_affine_components,
    theta,
)
from .residue import make_field, norm_trace, quad_extension
from .sums import (
    kl_pm,
    kl_simple,
    kloosterman_eval,
    so_split_spec,
    so_unramified_spec,
    sp_spec,
)


# the kinds whose characters take xi, kappa, resp. zeta
XI_KINDS = frozenset({GroupKind.SP, GroupKind.SO_RAM, GroupKind.SO_SPL, GroupKind.SO_UR})
KAPPA_KINDS = frozenset({GroupKind.SP, GroupKind.SO_SPL, GroupKind.SO_UR})
ZETA_KINDS = frozenset({GroupKind.TWISTED_GL, GroupKind.SO_SPL, GroupKind.SO_UR})


@dataclass(frozen=True)
class SSCParams:
    """Parameters of a simple supercuspidal representation.

    The meaning of the fields depends on the group kind: the twisted linear
    group uses (a, zeta) with the quadratic central character implied; the
    symplectic group uses (xi, kappa, a); the ramified even orthogonal group
    (xi, a); the split/unramified even orthogonal groups (xi, kappa, a, zeta).
    xi = -1, kappa = 1 and zeta != 1 are refused on a kind without xi, kappa,
    resp. zeta; both routes refuse a twisted linear zeta^2 other than w0(-1).
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
        if self.xi != 1 and self.group.kind not in XI_KINDS:
            raise InvalidParams(f"xi is not a parameter of {self.group.kind.value}")
        if self.kappa and self.group.kind not in KAPPA_KINDS:
            raise InvalidParams(f"kappa is not a parameter of {self.group.kind.value}")
        if self.zeta != 1 and self.group.kind not in ZETA_KINDS:
            raise InvalidParams(f"zeta is not a parameter of {self.group.kind.value}")
        if self.group.kind in (GroupKind.SO_SPL, GroupKind.SO_UR):
            if self.zeta not in (1, -1):
                raise InvalidParams("zeta must be a sign here")


def _refuse_off_zeta(params: SSCParams, p: int):
    """Twisted GL's zeta has zeta^2 = w0(-1) = (-1)^((p-1)/2); the parameters
    do not carry p, so each route refuses any other zeta at its start."""
    if params.group.kind is GroupKind.TWISTED_GL and params.zeta**2 != (-1) ** ((p - 1) // 2):
        raise InvalidParams(f"zeta^2 is not w0(-1) at p={p}")


@dataclass(frozen=True)
class CharValue:
    value: complex


@dataclass
class CharElement:
    """An element of the character's domain: +-h * phi^k with h in I+;
    ``phi`` holds the residue parameters of ``phi_element`` on the phi coset
    (k = 1) and is empty off it."""

    group: GroupId
    matrix: GroupMatrix
    phi: tuple = ()
    # the brute-force route's (coset sign, psi-sum) per (kappa, a mod p); the
    # plain coset's slot-residue histogram reads no parameter and is kept once
    _hists: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _plain_hist: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @cached_property
    def h_part(self) -> GroupMatrix:
        """The matrix with its phi factor split off: g * phi^-1 on the
        even-orthogonal cosets, phi^-1 * g on the twisted linear coset, g
        off the cosets."""
        if not self.phi:
            return self.matrix
        phi = phi_element(self.group, self.matrix.p, *self.phi)
        if self.group.kind is GroupKind.TWISTED_GL:
            return phi.inv() * self.matrix
        return self.matrix * phi.inv()


def family_element(kind: GroupKind, n: int, q: int, u: int, variant: str) -> CharElement:
    """The ``variant`` family element at the unit u, with its phi coset."""
    nu = nu_of_u(make_field(q), n, u) if kind is GroupKind.SO_RAM else 0
    gid = GroupId(kind, n, nu)
    return CharElement(gid, family_matrix(gid, q, u, variant), family_phi(gid, q, u, variant))


# ---------------------------------------------------------------------------
# the matrix digits the route reads


def _int_rows(g: GroupMatrix, digits: int):
    """(rows, mod): the entries of g mod p^digits = mod.  The route conjugates
    integral matrices only; an entry of negative valuation puts the element
    outside the character's domain."""
    if g.s:
        raise OutOfDomain("entry of negative valuation: outside the character's domain")
    return g.reduce(digits), g.p**digits


def _slot_residue(x, mod, p, piw, pre=1, post=1):
    """Residue of the entry pre*x*post at its slot level p^piw."""
    v = (pre * x * post) % mod
    return (v // p**piw) % p


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
        w = ext.eps_tilde if params.kappa else one
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
    p = element.matrix.p
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
    if kind is GroupKind.SO_SPL and not element.phi:
        return [h + t for h in [(x,) for x in half] for t in tuples(n)]
    if kind is GroupKind.SO_UR and not element.phi:
        ext_units = _norm_one(p)
        return [
            h + t + (tt,)
            for h in [(x,) for x in half]
            for t in tuples(n - 1)
            for tt in ext_units
        ]
    if kind is GroupKind.TWISTED_GL and not element.phi:
        # (t_1..t_{n-1}, z) with t_n = 1
        return [t + (z,) for t in tuples(n - 1) for z in units]
    if kind is GroupKind.TWISTED_GL:
        au = k.coerce(params.a * element.phi[0])
        if not au.is_square():
            return []
        w = k.sqrt(au)
        return [t + (tn,) for t in tuples(n - 1) for tn in (w.a, (-w).a)]
    if kind is GroupKind.SO_SPL:
        alpha, beta = element.phi
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
        (beta,) = element.phi
        if params.kappa != 0:
            return []
        c1 = k.coerce(-params.a) * k.coerce(beta)
        if not c1.is_square():
            return []
        x1 = k.sqrt(c1)
        return [(x1.a,) + t + (s,) for t in tuples(n - 1) for s in (1, -1)]
    raise HypothesisFailed(f"no index set for {kind}")


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
    """The torus sum of the character formula at the element: the psi-sum,
    taken once per element and (kappa, a mod p), times xi on the minus coset
    of I+ and zeta on the phi coset."""
    _refuse_off_zeta(params, element.matrix.p)
    key = (params.kappa, params.a % element.matrix.p)
    if key not in element._hists:
        element._hists[key] = _psi_sum(params, element)
    sign, total = element._hists[key]
    if total is None:
        return CharValue(0.0 + 0.0j)
    factor = params.zeta if element.phi else 1.0
    if sign < 0:
        factor = params.xi * factor
    return CharValue(total * factor)


def _psi_sum(params: SSCParams, element: CharElement):
    """(sign, sum): the sign of the element's coset of I+ and the psi-sum over
    its slot-residue histogram, None when the torus index set is empty."""
    gl = element.group.kind is GroupKind.TWISTED_GL
    histogram = _gl_histogram if gl else _standard_histogram
    if element.phi:
        sign, hist = histogram(params, element)
    else:
        if element._plain_hist is None:
            element._plain_hist = histogram(params, element)
        sign, hist = element._plain_hist
    if not hist:
        return sign, None
    p = element.matrix.p
    k, weights = _psi_form(params, p)
    roots = k._add_roots
    mul = operator.mul
    total = 0.0 + 0.0j
    if gl:
        # the central residue leads each key; w0 weights it, the form skips it
        w0 = k.omega0()
        w0_at = [None] + [w0(k.elem(z)) for z in range(1, p)]
        weights = [0] + weights
        for tup, count in hist.items():
            total += count * w0_at[tup[0]] * roots[sum(map(mul, weights, tup)) % p]
    else:
        for tup, count in hist.items():
            total += count * roots[sum(map(mul, weights, tup)) % p]
    return sign, total


def _slot_column(reps, values, coords, residue):
    """residue(rep[c] for c in coords) for each rep, in order; residue is
    tabulated once per value of its coordinates (``values``), so a rep costs
    one lookup."""
    if not coords:
        return repeat(residue(), len(reps))
    table = {xs: residue(*xs) for xs in product(*(values[c] for c in coords))}
    return map(table.__getitem__, zip(*(map(operator.itemgetter(c), reps) for c in coords)))


def _standard_histogram(params: SSCParams, element: CharElement):
    """(sign, histogram): the sign of the +-I+ coset and the slot residues of
    the torus conjugates of the I+ part, each read from its slot's table."""
    group = params.group
    p = element.matrix.p
    m, mod = _int_rows(element.h_part, 4)
    sign = 1
    d0 = m[0][0] % p
    if d0 == p - 1:
        sign = -1
        m = [[(-x) % mod for x in row] for row in m]
    elif d0 != 1:
        raise OutOfDomain("element is not in the +-coset of I+")
    reps = torus_index_set(params, element)
    if not reps:
        return sign, {}
    eps = make_field(p).eps.a
    N = group.size
    # the torus diagonal is (t_1..t_r, middle, t_r^-1..t_1^-1): the middle is
    # 1, 1 on the ramified kind and the quadratic pair (the last coordinate
    # of each rep) on the unramified one
    r = len(reps[0]) - (group.kind is GroupKind.SO_UR)
    values = [tuple(dict.fromkeys(col)) for col in zip(*reps)]

    def coordinate(d):
        if d < r:
            return d
        if d >= N - r:
            return N - 1 - d
        return None

    def diag(d, xs):
        """diagonal entry d at the coordinate values xs, 1 in the middle"""
        c = coordinate(d)
        if c is None:
            return 1
        return xs[c] if d < r else pow(xs[c], -1, mod)

    def plain(i, j, piw):
        coords = tuple(sorted({coordinate(i), coordinate(j)} - {None}))

        def residue(*x):
            xs = dict(zip(coords, x))
            post = pow(diag(j, xs), -1, mod)
            return _slot_residue(m[i][j], mod, p, piw, pre=diag(i, xs), post=post)

        return _slot_column(reps, values, coords, residue)

    def pair(i1, j1, j2, part):
        # the middle slot t_i * (m_ij1 + m_ij2 * sqrt eps) * y^-1, y the quadratic coordinate
        def residue(t, tt):
            x, y = tt if isinstance(tt, tuple) else (tt % p, 0)
            yinv = (x, (-y) % p)
            if part == 0:
                a = t * (m[i1][j1] * yinv[0] + m[i1][j2] * ((eps * yinv[1]) % p))
            else:
                a = t * (m[i1][j1] * yinv[1] + m[i1][j2] * yinv[0])
            return a % mod % p

        return _slot_column(reps, values, (i1, r), residue)

    columns = []
    for slot in group.component_slots():
        if isinstance(slot[0], tuple):
            (i1, j1, _), (_, j2, _) = slot
            columns += (pair(i1, j1, j2, 0), pair(i1, j1, j2, 1))
        else:
            columns.append(plain(*slot))
    hist: dict = {}
    for tup in zip(*columns):
        hist[tup] = hist.get(tup, 0) + 1
    return sign, hist


def _gl_histogram(params: SSCParams, element: CharElement):
    """(1, histogram) of (central residue, slot residues) over the torus
    conjugates, which lie in Z * I+.  Each conjugate's entries are computed
    only at (0, 0) and at the slots."""
    group = params.group
    p = element.matrix.p
    n = group.n
    N = 2 * n
    m, mod = _int_rows(element.matrix, 5)
    slots = group.component_slots()
    a_lift = params.a % p
    inv = [None] + [pow(x, -1, mod) for x in range(1, p)]
    mod_eff = mod // p if element.phi else mod
    au = (params.a * element.phi[0]) % p if element.phi else None
    # the (0, 0) entry and the slot entries of the conjugate t * m * t~, where
    # t~ reverses t; on the coset the rows move down one and row 0 becomes
    # a * (row N-1) / p
    reads = [(0, 0)] + [slot[:2] for slot in slots]
    rows = [(i - 1 if i else N - 1, j) for i, j in reads] if element.phi else reads
    piws = [slot[2] for slot in slots]
    hist: dict = {}
    for rep in torus_index_set(params, element):
        if not element.phi:
            z = rep[-1]
            t = list(rep[:-1]) + [1]
            t += [(z * inv[t[N - 1 - i]]) % mod for i in range(n, N)]
        else:
            t = list(rep[:-1]) + [rep[-1] % p]
            t += [(au * inv[t[N - 2 - i]]) % mod for i in range(n, N - 1)] + [1]
        conj = [(t[i] * m[i][j] * t[N - 1 - j]) % mod for i, j in rows]
        if element.phi:
            conj = [v if i else (a_lift * (v // p)) % mod_eff for (i, _), v in zip(reads, conj)]
        z_res = conj[0] % p
        if z_res == 0:
            raise OutOfDomain("conjugate fell outside Z*I+")
        zinv = pow(z_res, -1, mod_eff)
        vals = tuple(_slot_residue(x, mod_eff, p, piw, pre=zinv) for x, piw in zip(conj[1:], piws))
        tup = (z_res,) + vals
        hist[tup] = hist.get(tup, 0) + 1
    return 1, hist


# ---------------------------------------------------------------------------
# closed forms


@dataclass(frozen=True)
class ElementDescriptor:
    """Group kind, simple affine components, phi coset (``CharElement.phi``)
    and +-I+ sign of an element."""

    group: GroupId
    components: tuple
    phi: tuple = ()
    sign: int = 1


def describe(element: CharElement) -> ElementDescriptor:
    """The element's descriptor.  Each candidate h-part is classified once,
    by the I+ check of ``simple_affine_components``: a twisted linear h-part
    outside I+ is refused with NotInIplus, any other is read at its negative,
    and refused with OutOfDomain when that is outside I+ too."""
    hpart = element.h_part
    try:
        return ElementDescriptor(element.group, tuple(simple_affine_components(hpart)), element.phi)
    except NotInIplus:
        if element.group.kind is GroupKind.TWISTED_GL:
            raise
    try:
        comps = tuple(simple_affine_components(hpart.neg()))
    except NotInIplus:
        raise OutOfDomain("element is not in the character's domain") from None
    return ElementDescriptor(element.group, comps, element.phi, -1)


def char_closed_form(params: SSCParams, desc: ElementDescriptor) -> CharValue:
    kind = params.group.kind
    p = desc.components[0].field.p
    _refuse_off_zeta(params, p)
    k = make_field(p)
    w0 = k.omega0()
    n = params.group.n
    a = k.coerce(params.a)
    eps_k = k.eps ** params.kappa
    sgn = params.xi if desc.sign < 0 else 1
    h = list(desc.components)
    if kind is GroupKind.SO_RAM:
        alpha = a
        for x in h:
            alpha = alpha * x
        return CharValue(sgn * kloosterman_eval(kl_simple(k, n), alpha))
    if kind is GroupKind.TWISTED_GL and not desc.phi:
        pairs = [h[i] + h[2 * n - 2 - i] for i in range(n - 1)]
        if any(x.is_zero() for x in pairs) or h[-1].is_zero() or h[n - 1].is_zero():
            raise HypothesisFailed("the twisted norm is not affine generic")
        alpha = a * h[n - 1] * h[-1]
        for x in pairs:
            alpha = alpha * x * x
        return CharValue(sgn * (w0(a * h[-1]) * kloosterman_eval(sp_spec(k, n, twisted=True), alpha)))
    if kind is GroupKind.SP or not desc.phi:
        # 1/2 (Kl(x) + w0(w) Kl~(x)), Kl~ the quadratic-twisted sum of `spec`
        if kind is GroupKind.SP:
            x = a * eps_k * h[-1]
            for i in range(n - 1):
                x = x * h[i] * h[i]
            x = x * h[n - 1]
            # the quadratic factor carries only a*h_0 (the constraint lives on
            # the single twisted variable), matching the index-set computation
            spec, w = sp_spec, a * h[-1]
        elif kind is GroupKind.SO_SPL:
            x = a * eps_k * h[0] * h[n - 1] * h[n] * h[n + 1]
            for i in range(1, n - 1):
                x = x * h[i] * h[i]
            spec, w = so_split_spec, eps_k * h[n - 1] * h[n]
        elif kind is GroupKind.SO_UR:
            nr, _ = norm_trace(h[n - 1])
            x = a * eps_k * h[0] * nr * h[n]
            for i in range(1, n - 1):
                x = x * h[i] * h[i]
            spec, w = so_unramified_spec, nr * eps_k
        else:
            raise HypothesisFailed(f"no closed form for {kind}")
        v = 0.5 * kloosterman_eval(spec(k, n), x) + 0.5 * w0(w) * kloosterman_eval(
            spec(k, n, twisted=True), x
        )
        return CharValue(sgn * v)
    # the phi-cosets: zeta (Kl(x) + Kl(-x)), or 0 off the admissible parameters
    if kind is GroupKind.TWISTED_GL:
        u = k.coerce(desc.phi[0])
        pairs = [h[i] + h[2 * n - 1 - i] for i in range(1, n)]
        if any(x.is_zero() for x in pairs) or (u * h[0] + h[-1]).is_zero():
            raise HypothesisFailed("the shifted twisted norm is not affine generic")
        au = a * u
        if not au.is_square():
            return CharValue(0.0 + 0.0j)
        v_root = k.sqrt(au)
        x = (v_root * v_root * h[0] + a * h[-1]) / v_root
        for y in pairs:
            x = x * y
    elif kind is GroupKind.SO_SPL:
        alpha, beta = (k.coerce(y) for y in desc.phi)
        c1, c2 = -beta * a, alpha / eps_k
        if not (c1.is_square() and c2.is_square()):
            return CharValue(0.0 + 0.0j)
        x = k.sqrt(c1).inv() * k.sqrt(c2).inv() * a * (-beta * h[0] + h[n + 1])
        for i in range(1, n - 1):
            x = x * h[i]
        x = x * (h[n - 1] + alpha * h[n])
    elif kind is GroupKind.SO_UR:
        beta = k.coerce(desc.phi[0])
        c1 = -beta * a
        if params.kappa != 0 or not c1.is_square():
            return CharValue(0.0 + 0.0j)
        _, tr = norm_trace(h[n - 1])
        x = k.sqrt(c1).inv() * a * (-beta * h[0] + h[n])
        for i in range(1, n - 1):
            x = x * h[i]
        x = x * tr
    else:
        raise HypothesisFailed(f"no closed form for {kind}")
    return CharValue(sgn * (params.zeta * kl_pm(k, n, x)))


def affine_char_eval(params: SSCParams, element: CharElement) -> complex:
    """Value of the inducing character itself at a domain element.

    This is the tests' direct evaluator of the inducing character, not a
    second ``describe``: it splits g * phi^-1 for every kind (the twisted
    linear coset included) and applies the central-sign rule to every kind.
    """
    p = element.matrix.p
    if element.phi:
        phi = phi_element(params.group, p, *element.phi)
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
    # one level check: is_affine_generic would repeat it
    return iwahori_level(g) >= Level.IPLUS and all(not c.is_zero() for c in _slot_components(g))


def random_affine_generic(group: GroupId, p: int, rng: random.Random):
    """A random affine generic element of I+ (meeting the group when it has a
    form), built from torus-conjugated family elements; a twisted linear
    element is an I+ draw whose twisted norm g*theta(g) is affine generic."""
    k = make_field(p)
    if group.kind is GroupKind.TWISTED_GL:
        mask = iwahori_mask_at(group, Fraction(1, group.coxeter))
        g = sample_iplus(group, p, mask, rng, lambda g: _generic_in_iplus(g * theta(g)))
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
            gm = family_matrix(group, p, u, "plus")
            mod = p**gm.prec
            t = _random_torus(group, p, mod, rng)
            # t g t^-1 for the diagonal t, entry by entry
            tinv = [pow(x, -1, mod) for x in t]
            conj = [[ti * x * tj for x, tj in zip(row, tinv)] for ti, row in zip(t, gm.a)]
            factors.append(GroupMatrix(group, p, conj, gm.s, gm.prec))
        g = factors[0]
        for f in factors[1:]:
            g = g * f
        try:
            if _generic_in_iplus(g):
                return CharElement(group, g)
        except EndolabError:
            continue
    raise HypothesisFailed("could not sample an affine generic element")


def _random_torus(group: GroupId, p: int, mod: int, rng: random.Random):
    """The diagonal, mod ``mod``, of an exact lift of a residue torus element."""
    N = group.size
    n = group.n
    diag = [None] * N
    rank = {GroupKind.SO_RAM: n - 1, GroupKind.SO_SPL: n + 1}.get(group.kind, n)
    for i in range(rank):
        t = rng.randrange(1, p)
        diag[i] = t
        diag[N - 1 - i] = pow(t, -1, mod)
    if group.kind is GroupKind.SO_RAM:
        diag[n - 1] = 1
        diag[n] = 1
    elif group.kind is GroupKind.SO_UR:
        sgn = rng.choice([1, -1])
        diag[n] = sgn
        diag[n + 1] = sgn
    return diag


# ---------------------------------------------------------------------------
# formal degrees


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
