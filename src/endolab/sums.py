"""Gauss sums and generalized Kloosterman sums over residue fields.

The central object is a weighted, character-twisted sum over tuples
(x_1..x_n, y_1..y_m) in (k^x)^n x (kt^x)^m constrained by

    x_1^{k_1} ... x_n^{k_n} * Nr(y_1)^{l_1} ... Nr(y_m)^{l_m} = u,

where kt is the quadratic extension of k.  All q-1 values are produced in one
pass by convolving per-position tables over Z/(q-1) (grouping tuples by the
discrete log of their constraint product); a naive nested-sum evaluator is
kept as an independent oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from .errors import CapExceeded, HypothesisFailed, ZeroPoint
from .residue import FFElem, FiniteField, MultCharacter, quad_extension

BRUTE_Q_CAP = 13
BRUTE_VAR_CAP = 5
TOL = 1e-6


@dataclass(frozen=True)
class KloostermanSpec:
    """Weights and character twists defining a generalized Kloosterman sum."""

    field: FiniteField
    weights: tuple
    chis: tuple
    norm_weights: tuple = ()
    etas: tuple = ()
    name: str = dc_field(default="", compare=False)

    def __post_init__(self):
        if len(self.weights) != len(self.chis):
            raise ValueError("one character per plain variable required")
        if len(self.norm_weights) != len(self.etas):
            raise ValueError("one character per norm variable required")
        if any(k < 1 for k in self.weights + self.norm_weights):
            raise ValueError("weights must be positive")

    @property
    def n(self):
        return len(self.weights)

    @property
    def m(self):
        return len(self.norm_weights)

    def guard(self):
        if self.field.q > BRUTE_Q_CAP**2 or (
            self.field.f == 1 and self.field.q > BRUTE_Q_CAP
        ):
            raise CapExceeded(f"q={self.field.q} beyond evaluation cap")
        if self.n + 2 * self.m > BRUTE_VAR_CAP:
            raise CapExceeded(f"{self.n}+2*{self.m} variables beyond cap")


def kl_simple(field: FiniteField, n: int) -> KloostermanSpec:
    """The plain n-variable sum Kl^n_u(psi)."""
    triv = field.trivial_char()
    return KloostermanSpec(field, (1,) * n, (triv,) * n, name=f"Kl^{n}")


def gauss_sum(chi: MultCharacter, fld: FiniteField) -> complex:
    return sum(chi(t) * fld.psi(t) for t in fld.units())


def gauss_sum_ext(chi: MultCharacter, fld: FiniteField) -> complex:
    """Gauss sum of chi o Nr against psi o Tr over the quadratic extension."""
    ext = quad_extension(fld)
    total = 0j
    for y in ext.units():
        nr = ext.norm(y)
        total += chi(nr) * ext.psi_tilde(y)
    return total


def _position_tables(spec: KloostermanSpec):
    fld = spec.field
    order = fld.q - 1
    psi_by_index = [fld.psi(fld._units_by_index[m]) for m in range(order)]
    tables = []
    for k, chi in zip(spec.weights, spec.chis):
        t = [0j] * order
        for m in range(order):
            t[(k * m) % order] += psi_by_index[m] * chi.value_at_index(m)
        tables.append(t)
    if spec.m:
        ext = quad_extension(fld)
        for l, eta in zip(spec.norm_weights, spec.etas):
            t = [0j] * order
            for y in ext.units():
                nr = ext.norm(y)
                t[(l * fld.dlog(nr)) % order] += ext.psi_tilde(y) * eta(nr)
            tables.append(t)
    return tables


def _convolve(a, b, order):
    out = [0j] * order
    for i, va in enumerate(a):
        if va == 0:
            continue
        for j, vb in enumerate(b):
            out[(i + j) % order] += va * vb
    return out


# keyed by value: fields of the same (p, f) are built identically, so they
# share generator, discrete logs and hence tables
_TABLE_CACHE: dict = {}


def kloosterman_table(spec: KloostermanSpec):
    """All values Kl_u for u in k^x, indexed by dlog(u)."""
    spec.guard()
    key = (
        spec.field.p,
        spec.field.f,
        spec.weights,
        tuple(c.index for c in spec.chis),
        spec.norm_weights,
        tuple(c.index for c in spec.etas),
    )
    if key in _TABLE_CACHE:
        return _TABLE_CACHE[key]
    order = spec.field.q - 1
    table = None
    for t in _position_tables(spec):
        table = t if table is None else _convolve(table, t, order)
    if table is None:
        table = [0j] * order
        table[0] = 1.0 + 0j
    _TABLE_CACHE[key] = table
    return table


def kloosterman_eval(spec: KloostermanSpec, u: FFElem) -> complex:
    u = spec.field.coerce(u)
    if u.is_zero():
        raise ZeroPoint("Kloosterman sums are evaluated at units only")
    return kloosterman_table(spec)[spec.field.dlog(u)]


def kloosterman_eval_direct(spec: KloostermanSpec, u: FFElem) -> complex:
    """Transparent oracle: enumerate every tuple and filter by the constraint."""
    spec.guard()
    fld = spec.field
    u = fld.coerce(u)
    if u.is_zero():
        raise ZeroPoint("Kloosterman sums are evaluated at units only")
    ext = quad_extension(fld) if spec.m else None
    total = 0j
    norm_units = ext.units() if spec.m else []
    for xs in itertools.product(fld.units(), repeat=spec.n):
        for ys in itertools.product(norm_units, repeat=spec.m):
            prod = fld.one
            for k, x in zip(spec.weights, xs):
                prod = prod * x**k
            for l, y in zip(spec.norm_weights, ys):
                prod = prod * ext.norm(y) ** l
            if prod != u:
                continue
            val = 1.0 + 0j
            for x, chi in zip(xs, spec.chis):
                val *= fld.psi(x) * chi(x)
            for y, eta in zip(ys, spec.etas):
                val *= ext.psi_tilde(y) * eta(ext.norm(y))
            total += val
    return total


def fourier_check(spec: KloostermanSpec, chi: MultCharacter, tol: float = TOL):
    """Compare sum_u chi(u) Kl_u with the product of Gauss sums."""
    fld = spec.field
    order = fld.q - 1
    table = kloosterman_table(spec)
    lhs = sum(chi.value_at_index(d) * table[d] for d in range(order))
    rhs = 1.0 + 0j
    for k, c in zip(spec.weights, spec.chis):
        rhs *= gauss_sum(c * chi**k, fld)
    for l, eta in zip(spec.norm_weights, spec.etas):
        rhs *= gauss_sum_ext(eta * chi**l, fld)
    return lhs, rhs, abs(lhs - rhs) <= tol


def hd_product_check(chi: MultCharacter, tol: float = TOL) -> bool:
    """G(chi*w0)G(chi) = G(chi^2)G(w0)/chi(4)."""
    fld = chi.field
    w0 = fld.omega0()
    lhs = gauss_sum(chi * w0, fld) * gauss_sum(chi, fld)
    rhs = gauss_sum(chi**2, fld) * gauss_sum(w0, fld) / chi(fld.coerce(4))
    return abs(lhs - rhs) <= tol


def hd_lift_check(chi: MultCharacter, tol: float = TOL) -> bool:
    """G(chi o Nr, psi o Tr) = -G(chi, psi)^2."""
    fld = chi.field
    lhs = gauss_sum_ext(chi, fld)
    rhs = -gauss_sum(chi, fld) ** 2
    return abs(lhs - rhs) <= tol


def nonvanishing_scan(spec: KloostermanSpec, tol: float = TOL):
    """Return (a unit u with Kl_u != 0 or None, whether u -> Kl_u is constant)."""
    fld = spec.field
    table = kloosterman_table(spec)
    witness = None
    for d, v in enumerate(table):
        if abs(v) > tol:
            witness = fld._units_by_index[d]
            break
    constant = all(abs(v - table[0]) <= tol for v in table)
    return witness, constant


def ft_uniqueness_check(
    spec: KloostermanSpec, a: FFElem, b: FFElem, c: complex, tol: float = TOL
) -> bool:
    """Given Kl_{ua} = c*Kl_{ub} for all u, conclude c = 1 and a = b."""
    fld = spec.field
    a, b = fld.coerce(a), fld.coerce(b)
    table = kloosterman_table(spec)
    order = fld.q - 1
    da, db = fld.dlog(a), fld.dlog(b)
    for d in range(order):
        if abs(table[(d + da) % order] - c * table[(d + db) % order]) > tol:
            raise HypothesisFailed(
                f"Kl_{{ua}} = c*Kl_{{ub}} fails at u = gen^{d}"
            )
    return abs(c - 1) <= tol and a == b


# named specs attached to the classical groups --------------------------------


def sp_spec(fld: FiniteField, n: int, twisted: bool = False) -> KloostermanSpec:
    """(n+1)-variable sum with weights (2,..,2,1,1), optionally w0 on the last."""
    triv = fld.trivial_char()
    weights = (2,) * (n - 1) + (1, 1)
    chis = (triv,) * n + ((fld.omega0(),) if twisted else (triv,))
    tag = "chi_Sp" if twisted else "w_Sp"
    return KloostermanSpec(fld, weights, chis, name=f"{tag}(n={n})")


def gl_theta_spec(fld: FiniteField, n: int) -> KloostermanSpec:
    """Twisted-GL sum; same shape as the twisted symplectic one."""
    spec = sp_spec(fld, n, twisted=True)
    return KloostermanSpec(
        fld, spec.weights, spec.chis, name=f"w_GLtheta(n={n})"
    )


def so_split_spec(fld: FiniteField, n: int, twisted: bool = False) -> KloostermanSpec:
    """(n+2)-variable sum with weights (1,2,..,2,1,1,1)."""
    triv = fld.trivial_char()
    w0 = fld.omega0()
    weights = (1,) + (2,) * (n - 2) + (1, 1, 1)
    if twisted:
        chis = (triv,) * (n - 1) + (w0, w0, triv)
    else:
        chis = (triv,) * (n + 2)
    tag = "chi_SOspl" if twisted else "w_SOspl"
    return KloostermanSpec(fld, weights, chis, name=f"{tag}(n={n})")


def so_unramified_spec(
    fld: FiniteField, n: int, twisted: bool = False
) -> KloostermanSpec:
    """n plain variables with weights (1,2,..,2,1) plus one norm variable."""
    triv = fld.trivial_char()
    weights = (1,) + (2,) * (n - 2) + (1,)
    chis = (triv,) * n
    eta = (fld.omega0(),) if twisted else (triv,)
    tag = "chi_SOur" if twisted else "w_SOur"
    return KloostermanSpec(fld, weights, chis, (1,), eta, name=f"{tag}(n={n})")


def catalog(fld: FiniteField, ns=(2, 3)):
    """Every named spec at the requested ranks, within the variable cap."""
    out = []
    for n in ns:
        out.append(sp_spec(fld, n))
        out.append(sp_spec(fld, n, twisted=True))
        out.append(gl_theta_spec(fld, n))
        if n >= 2:  # the even-orthogonal specs need n >= 2; `sums eval --n` may be 1
            out.append(so_split_spec(fld, n))
            out.append(so_split_spec(fld, n, twisted=True))
            out.append(so_unramified_spec(fld, n))
            out.append(so_unramified_spec(fld, n, twisted=True))
    return [s for s in out if s.n + 2 * s.m <= BRUTE_VAR_CAP]
