"""Simple-supercuspidal parameter sets, affine generic characters, and the two
independent routes to character values at "shallow" elements.

``char_brute_force`` runs the compact-induction character formula: it sums the
inducing character over the finite torus index set attached to the element's
coset, conjugating honest matrix data.  On every kind a torus conjugate of the
h-part h is lam * s*h*s^-1, with s diagonal and lam a scalar: 1 on the standard
kinds, and on twisted GL, whose conjugate is t*h*t~ (t~ the reversed t), the
last coordinate z off the phi coset and a*u on it.  Each entry of s is a
constant times a monomial in the torus coordinates, so each slot residue reads
at most two coordinates, those whose exponents do not cancel in s_i/s_j.  One
walk serves every kind: it tabulates every slot once per histogram over the
values its coordinates take, and each conjugate reads its slot tuple from
these tables (on twisted GL led by the central residue).  The sum reads the
parameters only through (kappa, a mod p), so each element keeps one psi-sum
per such key and xi and zeta are applied to it afterwards.  On the plain coset
the histogram reads no parameter: it is walked once per kappa into a p x p
count table over (form value without the last slot, last slot residue), and
each a folds that table into the exact count vector c[r] of conjugates with
form value r (on twisted GL signed by w0 at the central residue), so the
psi-sum is sum_r c[r] psi(r).  The phi cosets' index sets read a, so their
histograms are built and tabulated once per (kappa, a), and folded the same
way: every coset's psi-sum is the one sum over its count vector.
``char_closed_form`` evaluates the matching Kloosterman/Gauss expression
through :mod:`endolab.sums`.  The two must agree; the test-suite grid enforces
it.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product, repeat

from .errors import HypothesisFailed, InvalidParams, NotInIplus, OutOfDomain
from .families import family_matrix, family_phi, nu_of_u
from .groups import (
    GroupId,
    GroupKind,
    GroupMatrix,
    Level,
    _slot_components,
    iwahori_level,
    iwahori_mask_at,
    phi_element,
    sample,
    sample_iplus,
    simple_affine_components,
    theta,
)
from .residue import eps_tilde, make_field, norm_trace
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


def zeta_unit(kind: GroupKind, q: int) -> complex:
    """The base value of the sign zeta: i on twisted GL at q = 3 mod 4, where w0(-1) = -1, else 1."""
    return 1j if kind is GroupKind.TWISTED_GL and q % 4 == 3 else 1


@dataclass(frozen=True)
class SSCParams:
    """Parameters of a simple supercuspidal representation.

    The meaning of the fields depends on the group kind: the twisted linear
    group uses (a, zeta) with the quadratic central character implied; the
    symplectic group uses (xi, kappa, a); the ramified even orthogonal group
    (xi, a); the split/unramified even orthogonal groups (xi, kappa, a, zeta).
    zeta is a sign that every route reads against ``zeta_unit(kind, q)``;
    xi = -1, kappa = 1 and zeta = -1 are refused on a kind without it.  xi,
    kappa and zeta are stored as ints, whatever number type they came in.
    """

    group: GroupId
    a: int
    xi: int = 1
    kappa: int = 0
    zeta: int = 1

    def __post_init__(self):
        if self.xi not in (1, -1):
            raise InvalidParams("xi must be a sign")
        if self.kappa not in (0, 1):
            raise InvalidParams("kappa must be 0 or 1")
        if self.zeta not in (1, -1):
            raise InvalidParams("zeta must be a sign")
        # a float, complex or bool sign is kept as its int twin, so equal
        # parameters have equal reprs; the suites build thousands of
        # parameters from ints, and one type test lets those through
        if not type(self.xi) is type(self.kappa) is type(self.zeta) is int:
            for name in ("xi", "kappa", "zeta"):
                object.__setattr__(self, name, int(getattr(self, name).real))
        if self.xi != 1 and self.group.kind not in XI_KINDS:
            raise InvalidParams(f"xi is not a parameter of {self.group.kind.value}")
        if self.kappa and self.group.kind not in KAPPA_KINDS:
            raise InvalidParams(f"kappa is not a parameter of {self.group.kind.value}")
        if self.zeta != 1 and self.group.kind not in ZETA_KINDS:
            raise InvalidParams(f"zeta is not a parameter of {self.group.kind.value}")


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
    # plain coset's slot-residue histogram reads no parameter and is kept once,
    # and its count table per kappa (``_count_table``)
    _hists: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _plain_hist: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _plain_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        # the trace form Tr(w * e) = 2 * (w * e).a on the basis e = 1, s of F_{p^2}
        K = make_field(p, 2)
        w = eps_tilde(p) if params.kappa else K.one
        return k, [1] * (n - 1) + [2 * (w * e).a % p for e in (K.one, K.elem(0, 1))] + [a]
    raise InvalidParams(f"no affine generic character for {kind}")


def _psi_value(form, slot_values):
    """psi of the weighted component sum; slot values are ints, laid out as
    the form's weights (the unramified middle slot as plain, sqrt-eps part)."""
    k, weights = form
    return k._add_roots[sum(map(operator.mul, weights, slot_values)) % k.p]


# ---------------------------------------------------------------------------
# torus index sets


def torus_ranges(params: SSCParams, element: CharElement):
    """The value tuple of each coordinate of the torus index set, whose
    representatives are the diagonal data of the conjugating elements:
    unit residues t_1, .. (t_1 up to sign on sp, so_spl and so_ur), the
    unramified middle coordinate as norm-one pairs (x, y) =
    x + y*sqrt(eps), and on the phi cosets the constrained branches (x1,)
    and (w, -w).  A branch is () where the index set is genuinely empty;
    raises when no index-set lemma covers the kind."""
    p = element.matrix.p
    k = make_field(p)
    n = params.group.n
    kind = params.group.kind
    units = tuple(x.a for x in k.units())
    half = units[: (p - 1) // 2]  # units() is in dlog order
    if kind is GroupKind.SP:
        return (half,) + (units,) * (n - 1)
    if kind is GroupKind.SO_RAM:
        return (units,) * (n - 1)
    if kind is GroupKind.SO_SPL and not element.phi:
        return (half,) + (units,) * n
    if kind is GroupKind.SO_UR and not element.phi:
        return (half,) + (units,) * (n - 1) + (_norm_one(p),)
    if kind is GroupKind.TWISTED_GL and not element.phi:
        # (t_1..t_{n-1}, z) with t_n = 1
        return (units,) * n
    if kind is GroupKind.TWISTED_GL:
        return (units,) * (n - 1) + (_roots(k, k.coerce(params.a * element.phi[0])),)
    if kind is GroupKind.SO_SPL:
        alpha, beta = element.phi
        c1 = k.coerce(-params.a) * k.coerce(beta)
        c2 = k.coerce(alpha) * k.coerce(k.eps.a) ** (-params.kappa)
        return (_roots(k, c1)[:1],) + (units,) * (n - 1) + (_roots(k, c2),)
    if kind is GroupKind.SO_UR:
        (beta,) = element.phi
        x1 = () if params.kappa else _roots(k, k.coerce(-params.a) * k.coerce(beta))[:1]
        return (x1,) + (units,) * (n - 1) + (((1, 0), (p - 1, 0)),)
    raise HypothesisFailed(f"no index set for {kind}")


def torus_index_set(params: SSCParams, element: CharElement):
    """Representatives of the finite index set of the character formula: the
    product of the coordinate ranges of ``torus_ranges``, the last coordinate
    varying fastest, and [] when the set is genuinely empty."""
    return list(product(*torus_ranges(params, element)))


def _roots(k, c):
    """(w, -w) for a square c = w^2, () for a non-square."""
    if not c.is_square():
        return ()
    w = k.sqrt(c)
    return (w.a, (-w).a)


@lru_cache(maxsize=None)
def _norm_one(p: int):
    """The norm-one elements z^(p+1) = 1 of F_{p^2}, as pairs (x, y) for
    z = x + y*sqrt(eps), in ``elements()`` order."""
    K = make_field(p, 2)
    return tuple(z.key() for z in K.elements() if z ** (p + 1) == K.one)


# ---------------------------------------------------------------------------
# brute-force character values


def char_brute_force(params: SSCParams, element: CharElement) -> CharValue:
    """The torus sum of the character formula at the element: the psi-sum,
    taken once per element and (kappa, a mod p), times xi on the minus coset
    of I+ and zeta on the phi coset."""
    key = (params.kappa, params.a % element.matrix.p)
    if key not in element._hists:
        element._hists[key] = _psi_sum(params, element)
    sign, total = element._hists[key]
    if total is None:
        return CharValue(0.0 + 0.0j)
    factor = params.zeta * zeta_unit(params.group.kind, element.matrix.p) if element.phi else 1.0
    if sign < 0:
        factor = params.xi * factor
    return CharValue(total * factor)


def _psi_sum(params: SSCParams, element: CharElement):
    """(sign, sum): the sign of the element's coset of I+ and the psi-sum
    sum_r c[r] psi(r) of its exact count vector, None when the torus index
    set is empty."""
    sign, counts = _psi_counts(params, element)
    if counts is None:
        return sign, None
    return sign, sum(map(operator.mul, counts, make_field(element.matrix.p)._add_roots))


def _psi_counts(params: SSCParams, element: CharElement):
    """(sign, c): c[r] is the number of torus conjugates whose form value is
    r mod p, each signed by w0 at its central residue on twisted GL, and None
    when the torus index set is empty.  The plain coset's histogram and its
    table per kappa are kept on the element; a phi coset's histogram reads a,
    so it and its table are built once per (kappa, a), and ``_hists`` keeps
    the sum."""
    if element.phi:
        sign, hist = _histogram(params, element)
        table = _count_table(params, element, hist)
    else:
        if element._plain_hist is None:
            element._plain_hist = _histogram(params, element)
        sign, hist = element._plain_hist
        if params.kappa not in element._plain_tables:
            element._plain_tables[params.kappa] = _count_table(params, element, hist)
        table = element._plain_tables[params.kappa]
    if table is None:
        return sign, None
    return sign, _fold(table, params.a % element.matrix.p)


def _count_table(params: SSCParams, element: CharElement, hist):
    """The histogram pushed forward to the counts T[t][s] of the conjugates
    whose last slot residue is t and whose form without that slot is s mod p
    (signed by w0 on twisted GL).  The form without its last slot reads kappa
    and not a, so one T serves every a that shares the histogram; T is None
    when the histogram is empty."""
    if not hist:
        return None
    p = element.matrix.p
    head = _psi_form(params, p)[1][:-1]
    table = [[0] * p for _ in range(p)]
    mul = operator.mul
    if element.group.kind is GroupKind.TWISTED_GL:
        signs = _w0_signs(p)
        for (z, *slots), count in hist.items():
            table[slots[-1]][sum(map(mul, head, slots)) % p] += signs[z] * count
    else:
        for tup, count in hist.items():
            table[tup[-1]][sum(map(mul, head, tup)) % p] += count
    return table


def _w0_signs(p: int):
    """w0 at each residue z = 1..p-1 as the exact sign +-1 (the Legendre
    symbol), indexed by z; None at 0."""
    return [None] + [1 if pow(z, (p - 1) // 2, p) == 1 else -1 for z in range(1, p)]


def _fold(table, a: int):
    """c[r] = sum of T[t][s] over s + a*t = r mod p: column t shifted by a*t
    and the columns added."""
    p = len(table)
    shifted = []
    for t, column in enumerate(table):
        cut = p - a * t % p
        shifted.append(column[cut:] + column[:cut])
    return list(map(sum, zip(*shifted)))


def _slot_column(reps, values, coords, residue):
    """residue(rep[c] for c in coords) for each rep, in order; residue is
    tabulated once per value of its coordinates (``values``), so a rep costs
    one lookup."""
    if not coords:
        return repeat(residue(), len(reps))
    table = {xs: residue(*xs) for xs in product(*(values[c] for c in coords))}
    return map(table.__getitem__, zip(*(map(operator.itemgetter(c), reps) for c in coords)))


def _histogram(params: SSCParams, element: CharElement):
    """(sign, histogram) of the slot residues of the torus conjugates
    lam * s*h*s^-1 of the h-part h, the conjugates read from
    ``torus_index_set`` and each slot from its table over the coordinates it
    reads.  s is (t_1..t_r, middle, t_r^-1..t_1^-1) on the standard kinds.
    On twisted GL, s is (t_1..t_{n-1}, 1, ...) off the phi coset and
    (a*u, t_1..t_{n-1}, w, ...) on it, and past the middle each entry is lam
    over its partner's, the partner of d being N-1-d, resp. N-d.  A twisted
    tuple is (lam*h00, h00^-1 times each slot residue of s*h*s^-1) mod p, the
    residues of the conjugate scaled by its central residue; that reads h00
    only mod p, because h is in Z*I+ and so every slot entry is divisible by
    p^piw.  Elsewhere h is in +-I+ and the sign is that of its coset."""
    group = params.group
    p = element.matrix.p
    gl = group.kind is GroupKind.TWISTED_GL
    m, mod = _int_rows(element.h_part, 4)
    sign = 1
    d0 = m[0][0] % p
    if gl:
        if d0 == 0:
            raise OutOfDomain("element is not in Z*I+")
    elif d0 == p - 1:
        sign = -1
        m = [[(-x) % mod for x in row] for row in m]
    elif d0 != 1:
        raise OutOfDomain("element is not in the +-coset of I+")
    values = torus_ranges(params, element)
    reps = torus_index_set(params, element)
    if not reps:
        return sign, {}
    N = group.size
    n = group.n
    width = len(values)
    # a monomial is (constant, exponent per coordinate)
    one = (1, (0,) * width)

    def coordinate(c):
        return 1, tuple(int(k == c) for k in range(width))

    def ratio(x, y):
        return x[0] * pow(y[0], -1, mod) % mod, tuple(map(operator.sub, x[1], y[1]))

    if not gl:
        # the so_ur middle is the quadratic pair (the last coordinate), which
        # the pair slots read directly
        r = width - (group.kind is GroupKind.SO_UR)
        lam, partner = one, N - 1
        s = [coordinate(d) for d in range(r)] + [one] * (N // 2 - r)
    elif not element.phi:
        lam, partner = coordinate(n - 1), N - 1
        s = [coordinate(d) for d in range(n - 1)] + [one]
    else:
        lam, partner = ((params.a * element.phi[0]) % p, one[1]), N
        s = [lam] + [coordinate(d) for d in range(n)]
    for d in range(len(s), N):
        s.append(ratio(lam, s[partner - d]))

    def column(mono, residue):
        # residue at the monomial's value, tabulated over the coordinates
        # whose exponents do not cancel
        const, exps = mono
        coords = tuple(k for k, e in enumerate(exps) if e)

        def at(*xs):
            v = const
            for k, x in zip(coords, xs):
                v = v * pow(x, exps[k], mod) % mod
            return residue(v)

        return _slot_column(reps, values, coords, at)

    scale = pow(d0, -1, mod) if gl else 1

    def plain(i, j, piw):
        # the residue of v * h_ij (times h00^-1 on twisted GL) at its slot level p^piw
        x, level = m[i][j] * scale, p**piw
        return column(ratio(s[i], s[j]), lambda v: v * x % mod // level % p)

    def pair(i1, j1, j2):
        # the middle slot (m_ij1 + m_ij2 * sqrt eps) * y^-1 * t_i in F_{p^2}, y the
        # norm-one coordinate, so y^-1 is its conjugate; both parts from one product
        K = make_field(p, 2)
        mid = K.elem(m[i1][j1], m[i1][j2])

        def residue(t, y):
            return (mid * K.elem(y[0], -y[1]) * t).key()

        return zip(*_slot_column(reps, values, (i1, width - 1), residue))

    columns = [column(lam, lambda v: v * d0 % p)] if gl else []
    for slot in group.component_slots():
        if isinstance(slot[0], tuple):
            (i1, j1, _), (_, j2, _) = slot
            columns += pair(i1, j1, j2)
        else:
            columns.append(plain(*slot))
    hist: dict = {}
    for tup in zip(*columns):
        hist[tup] = hist.get(tup, 0) + 1
    return sign, hist


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
    k = make_field(desc.components[0].field.p)
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
        v = 0.5 * kloosterman_eval(spec(k, n, twisted=False), x) + 0.5 * w0(w) * kloosterman_eval(
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
    return CharValue(sgn * (params.zeta * zeta_unit(kind, k.q) * kl_pm(k, n, x)))


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
        zfac = params.zeta * zeta_unit(params.group.kind, p)
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

    def draw():
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
        return g

    return CharElement(group, sample(draw, _generic_in_iplus))


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
