"""Gauss sums and generalized Kloosterman sums over residue fields.

The central object is a weighted, character-twisted sum over tuples
(x_1..x_n, y_1..y_m) in (k^x)^n x (kt^x)^m constrained by

    x_1^{k_1} ... x_n^{k_n} * Nr(y_1)^{l_1} ... Nr(y_m)^{l_m} = u,

where kt is the quadratic extension of k.  All q-1 values are produced in one
pass by convolving per-position tables over Z/(q-1) (grouping tuples by the
discrete log of their constraint product); a naive nested-sum evaluator is
kept as an independent oracle and reads none of the tables below.

Gauss sums are value-cached per (p, f, index).  They and the position tables
read two per-field tables, cached per (p, f): psi(gen^m) for m < q - 1, and
(dlog Nr(y), psi~(y)) for the units y of the quadratic extension.  Every sum
adds the same terms in the same order as a walk over the field elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

from .errors import CapExceeded, WrongField, ZeroPoint
from .residue import FFElem, FiniteField, MultCharacter, make_field, quad_extension

BRUTE_Q_CAP = 13
BRUTE_VAR_CAP = 5
TOL = 1e-6


def _refuse_other_field(chi: MultCharacter, fld: FiniteField):
    if chi.field is not fld:
        raise WrongField("character of a different field")


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
        # the tables read characters by index, so a character of another
        # field is refused here rather than read at the wrong roots
        for chi in self.chis + self.etas:
            _refuse_other_field(chi, self.field)

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


@lru_cache(maxsize=None)
def _psi_table(p: int, f: int) -> tuple:
    """psi(gen^m) for m < q - 1."""
    fld = make_field(p, f)
    return tuple(fld.psi(t) for t in fld.units())


@lru_cache(maxsize=None)
def _ext_table(p: int, f: int) -> tuple:
    """(dlog Nr(y), psi~(y)) for each unit y of the quadratic extension, in
    ext.units() order."""
    fld = make_field(p, f)
    ext = quad_extension(fld)
    return tuple((fld.dlog(ext.norm(y)), ext.psi_tilde(y)) for y in ext.units())


def gauss_sum(chi: MultCharacter, fld: FiniteField) -> complex:
    _refuse_other_field(chi, fld)
    return _gauss_sum(fld.p, fld.f, chi.index)


@lru_cache(maxsize=None)
def _gauss_sum(p: int, f: int, index: int) -> complex:
    chi = MultCharacter(make_field(p, f), index)
    return sum(chi.value_at_index(m) * psi for m, psi in enumerate(_psi_table(p, f)))


def gauss_sum_ext(chi: MultCharacter, fld: FiniteField) -> complex:
    """Gauss sum of chi o Nr against psi o Tr over the quadratic extension."""
    _refuse_other_field(chi, fld)
    return _gauss_sum_ext(fld.p, fld.f, chi.index)


@lru_cache(maxsize=None)
def _gauss_sum_ext(p: int, f: int, index: int) -> complex:
    chi = MultCharacter(make_field(p, f), index)
    total = 0j
    for d, psi in _ext_table(p, f):
        total += chi.value_at_index(d) * psi
    return total


def _position_tables(spec: KloostermanSpec):
    p, f = spec.field.p, spec.field.f
    order = spec.field.q - 1
    tables = []
    for k, chi in zip(spec.weights, spec.chis):
        t = [0j] * order
        for m, psi in enumerate(_psi_table(p, f)):
            t[(k * m) % order] += psi * chi.value_at_index(m)
        tables.append(t)
    for l, eta in zip(spec.norm_weights, spec.etas):
        t = [0j] * order
        for d, psi in _ext_table(p, f):
            t[(l * d) % order] += psi * eta.value_at_index(d)
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


def kl_pm(fld: FiniteField, n: int, u: FFElem) -> complex:
    """Kl^n_u + Kl^n_{-u}: the sum over both square roots on the phi-cosets
    and in the packet identities."""
    spec = kl_simple(fld, n)
    return kloosterman_eval(spec, u) + kloosterman_eval(spec, -u)


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


# named specs attached to the classical groups --------------------------------


def sp_spec(fld: FiniteField, n: int, twisted: bool = False) -> KloostermanSpec:
    """(n+1)-variable sum with weights (2,..,2,1,1), optionally w0 on the last."""
    triv = fld.trivial_char()
    weights = (2,) * (n - 1) + (1, 1)
    chis = (triv,) * n + ((fld.omega0(),) if twisted else (triv,))
    tag = "chi_Sp" if twisted else "w_Sp"
    return KloostermanSpec(fld, weights, chis, name=f"{tag}(n={n})")


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
    """Every named spec at the requested ranks; evaluating one beyond the
    variable cap raises CapExceeded."""
    out = []
    for n in ns:
        out.append(sp_spec(fld, n))
        out.append(sp_spec(fld, n, twisted=True))
        if n >= 2:  # the even-orthogonal specs need n >= 2; `sums eval --n` may be 1
            out.append(so_split_spec(fld, n))
            out.append(so_split_spec(fld, n, twisted=True))
            out.append(so_unramified_spec(fld, n))
            out.append(so_unramified_spec(fld, n, twisted=True))
    return out
