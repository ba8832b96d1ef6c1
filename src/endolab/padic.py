"""Fixed-precision arithmetic in Kummer towers over Q_p, tame symbols, and
Herbrand functions.

A tower is O = Z_p[phi]/(phi^e - p*u0); elements are kept in capped-relative
form phi^shift * unit with a unit part of tracked relative precision (in
phi-digits) whose coefficients are ints mod p^(prec + margin), the store.
Operations fail loudly when precision runs out instead of guessing digits.
Inverses and quotients are exact mod the store: each is one linear solve of
u * x = r on every stored digit, not an iteration stopped at a precision.

Wildly ramified stages never get element arithmetic here; they enter only
through their piecewise-linear Herbrand data (PLFunc).
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import (
    DivisionByNonUnitBeyondPrecision,
    IndistinguishableFromZero,
    InvalidParams,
    NonMonotone,
    PrecisionExhausted,
    RootOfUnityUnavailable,
    WrongField,
)
from .residue import is_prime, make_field

DEFAULT_PREC = 6
_STORE_MARGIN = 8


class TowerSpec:
    """O = Z_p[phi]/(phi^e - p*u0), digits mod p^prec."""

    def __init__(self, p, e=1, u0=1, prec=DEFAULT_PREC):
        if not is_prime(p) or p == 2:
            raise WrongField("residue characteristic must be an odd prime")
        # Eisenstein-extension arithmetic is uniform in e (wild included);
        # only the root-of-unity and symbol helpers carry tameness demands
        if prec < 2:
            raise PrecisionExhausted("need at least 2 digits of precision")
        if not isinstance(u0, int):
            raise TypeError(f"bad coefficient {u0!r}")
        self.p = p
        self.e = e
        self.prec = prec
        self.store = p ** (prec + _STORE_MARGIN)
        self.residue_field = make_field(p)
        self.u0 = u0 % self.store
        if self._cvalp(self.u0) != 0:
            raise WrongField("the Kummer unit u0 must be a unit")
        # phi^e = p*u0 wraps the top digits; dividing by phi unwraps them
        self.pu0 = (p * self.u0) % self.store
        self.u0_inv = pow(self.u0, -1, self.store)
        self.rprec_cap = e * prec

    def _cvalp(self, c):
        """p-valuation of a coefficient, capped at prec + margin."""
        cap = self.prec + _STORE_MARGIN
        if c == 0:
            return cap
        v = 0
        while c % self.p == 0 and v < cap:
            c //= self.p
            v += 1
        return v

    # element constructors ---------------------------------------------------

    def zero(self, absprec=None):
        if absprec is None:
            absprec = self.rprec_cap
        return LocalElem(self, absprec, None, 0)

    def one(self):
        return self.from_int(1)

    def from_int(self, n):
        return self.from_coeffs([n] + [0] * (self.e - 1))

    def from_coeffs(self, coeffs):
        """Element sum(coeffs[i] * phi^i), exact input."""
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError(f"bad coefficient {c!r}")
        if len(coeffs) != self.e:
            raise InvalidParams(f"need exactly {self.e} coefficients, not {len(coeffs)}")
        return _make(self, 0, [c % self.store for c in coeffs], self.rprec_cap)

    def phi(self, k=1):
        x = self.from_int(1)
        return LocalElem(self, x.shift + k, x.unit, x.rprec)

    def pi(self):
        """The base uniformizer p as a tower element."""
        return self.from_int(self.p)

    def zeta(self, m):
        """Primitive m-th root of unity, Hensel-lifted; needs m | p - 1."""
        if (self.p - 1) % m != 0:
            raise RootOfUnityUnavailable(f"no primitive {m}-th root: p={self.p}")
        g = self.residue_field.gen.a
        x = pow(g, (self.p - 1) // m, self.p)
        mod = self.p
        while mod < self.store:
            mod = min(mod * mod, self.store)
            fx = (pow(x, m, mod) - 1) % mod
            dfx = (m * pow(x, m - 1, mod)) % mod
            x = (x - fx * pow(dfx, -1, mod)) % mod
        return self.from_int(x)

    def __repr__(self):
        return f"TowerSpec(p={self.p}, e={self.e}, u0=.., prec={self.prec})"


def _poly_valuation(tower, coeffs):
    """phi-valuation of sum(c_i phi^i): min_i (i + e * val_p(c_i))."""
    e = tower.e
    best = None
    for i, c in enumerate(coeffs):
        v = i + e * tower._cvalp(c)
        if best is None or v < best:
            best = v
    return best


def _poly_mul(tower, a, b):
    """Schoolbook product, then phi^(k+e) = p*u0 * phi^k folds the top half."""
    e = tower.e
    full = [0] * (2 * e)
    for i, ca in enumerate(a):
        if ca:
            for k, cb in enumerate(b, i):
                full[k] += ca * cb
    pu0, store = tower.pu0, tower.store
    return [(lo + pu0 * hi) % store for lo, hi in zip(full, full[e:])]


def _poly_solve(tower, u, r):
    """The x with u * x = r mod store, for a unit u: Gaussian elimination on
    the multiplication matrix of u, whose column j is u * phi^j.  Above the
    diagonal phi^e wraps to p*u0, so mod p the matrix is lower triangular with
    u[0] on its diagonal, and every pivot stays a unit without a search."""
    e, store = tower.e, tower.store
    u = list(u)
    wrapped = [tower.pu0 * c for c in u]
    # row k: u[k], ..., u[0], then p*u0 * (u[e-1], ..., u[k+1]), then r[k]
    rows = [u[k::-1] + wrapped[:k:-1] + [r[k]] for k in range(e)]
    # scale each pivot row to a 1 on the diagonal and clear the column below
    # it; only the columns right of the pivot are read again
    for c in range(e):
        scale = pow(rows[c][c], -1, store)
        piv = rows[c][c + 1 :] = [y * scale % store for y in rows[c][c + 1 :]]
        for row in rows[c + 1 :]:
            f = row[c]
            if f:
                row[c + 1 :] = [(y - f * z) % store for y, z in zip(row[c + 1 :], piv)]
    x = [0] * e
    for k in reversed(range(e)):
        x[k] = (rows[k][e] - sum(map(operator.mul, rows[k][k + 1 : e], x[k + 1 :]))) % store
    return x


def _poly_shift_up(tower, coeffs, t):
    """Multiply by phi^t inside the quotient ring (exact)."""
    out = list(coeffs)
    for _ in range(t):
        out = [(out[-1] * tower.pu0) % tower.store] + out[:-1]
    return out


def _poly_shift_down(tower, coeffs, t):
    """Divide by phi^t; requires divisibility of the wrapped coefficients."""
    out = list(coeffs)
    for _ in range(t):
        c0 = out[0]
        if tower._cvalp(c0) < 1:
            raise DivisionByNonUnitBeyondPrecision("unit constant term under phi-division")
        out = out[1:] + [(c0 // tower.p * tower.u0_inv) % tower.store]
    return out


def _make(tower, shift, coeffs, rprec):
    """Normalize (shift, coeffs) so the unit part has phi-valuation zero."""
    rprec = min(rprec, tower.rprec_cap)
    if rprec <= 0:
        return LocalElem(tower, shift + rprec, None, 0)
    if coeffs[0] % tower.p:  # a unit constant term: phi-valuation 0
        return LocalElem(tower, shift, tuple(coeffs), rprec)
    t = _poly_valuation(tower, coeffs)
    if t is None or t >= rprec:
        return LocalElem(tower, shift + rprec, None, 0)
    coeffs = _poly_shift_down(tower, coeffs, t)
    return LocalElem(tower, shift + t, tuple(coeffs), rprec - t)


class LocalElem:
    """phi^shift * unit, with the unit (a tuple of e coefficients) known to
    rprec phi-digits.

    A None unit means the element is indistinguishable from zero at absolute
    precision phi^shift.
    """

    __slots__ = ("tower", "shift", "unit", "rprec")

    def __init__(self, tower, shift, unit, rprec):
        self.tower = tower
        self.shift = shift
        self.unit = unit
        self.rprec = rprec

    def is_zero(self):
        return self.unit is None

    def valuation(self) -> Fraction:
        """Valuation normalized so val(p) = 1."""
        if self.is_zero():
            raise IndistinguishableFromZero(
                f"zero to absolute precision phi^{self.shift}"
            )
        return Fraction(self.shift, self.tower.e)

    def abs_prec(self) -> int:
        return self.shift + (self.rprec if self.unit is not None else 0)

    def leading_unit(self):
        """Residue of the valuation-zero unit part."""
        if self.is_zero():
            raise IndistinguishableFromZero("no leading unit of zero")
        return self.tower.residue_field.elem(self.unit[0] % self.tower.p)

    def _check(self, other):
        if not isinstance(other, LocalElem):
            if isinstance(other, int):
                return self.tower.from_int(other)
            raise TypeError(f"cannot combine with {other!r}")
        if other.tower is not self.tower:
            raise WrongField("elements of different towers")
        return other

    def __add__(self, other):
        other = self._check(other)
        t = self.tower
        if self.is_zero() and other.is_zero():
            return t.zero(min(self.shift, other.shift))
        if self.is_zero():
            return _cap_abs(other, self.shift)
        if other.is_zero():
            return _cap_abs(self, other.shift)
        v = min(self.shift, other.shift)
        a = _poly_shift_up(t, self.unit, self.shift - v)
        b = _poly_shift_up(t, other.unit, other.shift - v)
        coeffs = [(x + y) % t.store for x, y in zip(a, b)]
        rprec = min(self.abs_prec(), other.abs_prec()) - v
        return _make(t, v, coeffs, rprec)

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero():
            return self
        coeffs = tuple((-c) % self.tower.store for c in self.unit)
        return LocalElem(self.tower, self.shift, coeffs, self.rprec)

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        other = self._check(other)
        t = self.tower
        if self.is_zero() or other.is_zero():
            return t.zero(self.shift + other.shift)
        coeffs = _poly_mul(t, self.unit, other.unit)
        return _make(t, self.shift + other.shift, coeffs, min(self.rprec, other.rprec))

    __rmul__ = __mul__

    def inv(self):
        return self.tower.one() / self

    def __truediv__(self, other):
        """One solve of other's unit against self's: exact mod store, so the
        same digits as self * other.inv()."""
        other = self._check(other)
        if other.is_zero():
            raise DivisionByNonUnitBeyondPrecision("inverse of (precision-)zero")
        t = self.tower
        if self.is_zero():
            return t.zero(self.shift - other.shift)
        coeffs = _poly_solve(t, other.unit, self.unit)
        return _make(t, self.shift - other.shift, coeffs, min(self.rprec, other.rprec))

    def __rtruediv__(self, other):
        return self._check(other) * self.inv()

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** (-n)
        # the lowest set bit takes the base itself; no squaring past the top bit
        out = None
        base = self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return self.tower.one() if out is None else out

    def equal_mod(self, other, phi_digits):
        d = self - self._check(other)
        return d.is_zero() or d.shift >= phi_digits

    def __eq__(self, other):
        """Equality within the shared precision."""
        try:
            other = self._check(other)
        except TypeError:
            return NotImplemented
        return self.equal_mod(other, min(self.abs_prec(), other.abs_prec()))

    def __repr__(self):
        if self.is_zero():
            return f"O(phi^{self.shift})"
        return f"phi^{self.shift}*{self.unit} + O(phi^{self.shift + self.rprec})"


def _cap_abs(x, absprec):
    """Truncate x to absolute precision phi^absprec."""
    if x.is_zero():
        return LocalElem(x.tower, min(x.shift, absprec), None, 0)
    if absprec <= x.shift:
        return LocalElem(x.tower, absprec, None, 0)
    return LocalElem(x.tower, x.shift, x.unit, min(x.rprec, absprec - x.shift))


# tame quadratic symbols ------------------------------------------------------


def _subfield_val_unit(x: LocalElem, sub: int):
    """Valuation and leading unit of x viewed in the subtower F[phi^sub]."""
    if x.is_zero():
        raise IndistinguishableFromZero("symbol of (precision-)zero")
    t = x.tower
    if sub < 1 or t.e % sub != 0:
        raise WrongField("subtower index must be a positive divisor of the Kummer degree")
    if x.shift % sub != 0:
        raise WrongField("element does not lie in the requested subtower")
    for i, c in enumerate(x.unit):
        if (x.shift + i) % sub != 0 and t._cvalp(c) * t.e + i < x.rprec:
            raise WrongField("element does not lie in the requested subtower")
    return x.shift // sub, x.leading_unit()


def tame_hilbert(x: LocalElem, y: LocalElem, sub: int = 1) -> int:
    """Quadratic tame symbol of the subtower K = F[phi^sub] at x, y.

    Computed as w0((-1)^{v(x)v(y)} lu(x)^{v(y)} lu(y)^{-v(x)}) over the
    residue field, with v the normalized integer valuation of K.
    """
    vx, ux = _subfield_val_unit(x, sub)
    vy, uy = _subfield_val_unit(y, sub)
    k = x.tower.residue_field
    t = k.coerce(-1) ** (vx * vy) * ux**vy * uy ** (-vx)
    return 1 if t.is_square() else -1


# piecewise-linear Herbrand functions ----------------------------------------


class PLFunc:
    """Continuous piecewise-linear increasing concave function with f(0) = 0.

    ``breaks`` are the interior breakpoints, ``slopes`` the per-segment slopes
    (one more than breaks), all exact rationals.
    """

    def __init__(self, breaks, slopes):
        self.breaks = [Fraction(b) for b in breaks]
        self.slopes = [Fraction(s) for s in slopes]
        if len(self.slopes) != len(self.breaks) + 1:
            raise NonMonotone("need one slope per segment")
        if any(b2 <= b1 for b1, b2 in zip(self.breaks, self.breaks[1:])):
            raise NonMonotone("breakpoints must increase")
        if any(s <= 0 for s in self.slopes):
            raise NonMonotone("slopes must be positive")
        if any(s2 > s1 for s1, s2 in zip(self.slopes, self.slopes[1:])):
            raise NonMonotone("slopes must not increase (concavity)")

    @classmethod
    def identity(cls):
        return cls([], [1])

    def __call__(self, u):
        u = Fraction(u)
        out = Fraction(0)
        prev = Fraction(0)
        for b, s in zip(self.breaks, self.slopes):
            if u <= b:
                return out + s * (u - prev)
            out += s * (b - prev)
            prev = b
        return out + self.slopes[-1] * (u - prev)

    def inverse_at(self, y):
        y = Fraction(y)
        out = Fraction(0)
        prev_u = Fraction(0)
        for b, s in zip(self.breaks, self.slopes):
            seg = s * (b - prev_u)
            if y <= out + seg:
                return prev_u + (y - out) / s
            out += seg
            prev_u = b
        return prev_u + (y - out) / self.slopes[-1]

    def compose(self, inner: "PLFunc") -> "PLFunc":
        """self o inner."""
        cands = set(inner.breaks)
        for b in self.breaks:
            cands.add(inner.inverse_at(b))
        cands = sorted(c for c in cands if c > 0)
        end = (cands[-1] if cands else Fraction(1)) + 1
        pts = [Fraction(0)] + cands + [end]
        slopes = [
            (self(inner(b)) - self(inner(a))) / (b - a)
            for a, b in zip(pts, pts[1:])
        ]
        # drop spurious candidates where the slope does not actually change
        out_breaks, out_slopes = [], [slopes[0]]
        for b, s in zip(cands, slopes[1:]):
            if s != out_slopes[-1]:
                out_breaks.append(b)
                out_slopes.append(s)
        return PLFunc(out_breaks, out_slopes)

    def __eq__(self, other):
        return (
            isinstance(other, PLFunc)
            and self.breaks == other.breaks
            and self.slopes == other.slopes
        )

    def __repr__(self):
        return f"PLFunc(breaks={self.breaks}, slopes={self.slopes})"


def herbrand_compose(stages) -> PLFunc:
    """Compose Herbrand functions bottom-to-top of a tower.

    ``stages[0]`` is the bottom (largest) step; the composite is
    stages[0] o stages[1] o ... o stages[-1].
    """
    out = PLFunc.identity()
    for st in stages:
        out = out.compose(st)
    return out


def extract_jumps(f: PLFunc):
    """Breakpoints with the index drop [Q_b : Q_{b+}] = slope ratio at each."""
    out = []
    for i, b in enumerate(f.breaks):
        ratio = f.slopes[i] / f.slopes[i + 1]
        out.append((b, ratio))
    return out
