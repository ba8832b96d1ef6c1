"""Arithmetic in small residue fields F_q (q = p^f, f <= 2) and their characters.

Elements of F_{p^2} are written a + b*s with s^2 equal to a fixed nonsquare
of F_p, so all arithmetic reduces to integer arithmetic mod p.  Multiplicative
characters are evaluated through a precomputed discrete-log table; the additive
character is psi(x) = exp(2*pi*i*Tr(x)/p).
"""

from __future__ import annotations

import cmath
from functools import cached_property, lru_cache

from .errors import (
    EvenCharacteristic,
    NotPrime,
    SquareDiscriminant,
    UnsupportedDegree,
    WrongField,
    ZeroArgument,
)

DLOG_CAP = 10**4


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FFElem:
    """Element a + b*s of F_{p^f}; b is 0 when f = 1."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field, a, b=0):
        self.field = field
        self.a = a % field.p
        self.b = b % field.p

    def key(self):
        return (self.a, self.b)

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def __add__(self, other):
        other = self.field.coerce(other)
        return FFElem(self.field, self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return FFElem(self.field, -self.a, -self.b)

    def __sub__(self, other):
        return self + (-self.field.coerce(other))

    def __rsub__(self, other):
        return self.field.coerce(other) - self

    def __mul__(self, other):
        other = self.field.coerce(other)
        p, e = self.field.p, self.field._base_nonsquare
        a = (self.a * other.a + e * self.b * other.b) % p
        b = (self.a * other.b + self.b * other.a) % p
        return FFElem(self.field, a, b)

    __rmul__ = __mul__

    def inv(self):
        if self.is_zero():
            raise ZeroArgument("inverse of zero")
        p, e = self.field.p, self.field._base_nonsquare
        nr = (self.a * self.a - e * self.b * self.b) % p
        nr_inv = pow(nr, -1, p)
        return FFElem(self.field, self.a * nr_inv, -self.b * nr_inv)

    def __truediv__(self, other):
        return self * self.field.coerce(other).inv()

    def __rtruediv__(self, other):
        return self.field.coerce(other) * self.inv()

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conj(self):
        """Galois conjugate a - b*s (acts as x -> x^p for f = 2)."""
        return FFElem(self.field, self.a, -self.b)

    def is_square(self):
        if self.is_zero():
            return True
        return self.field.dlog(self) % 2 == 0

    def __eq__(self, other):
        if not isinstance(other, FFElem):
            try:
                other = self.field.coerce(other)
            except TypeError:
                return NotImplemented
        return self.field is other.field and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((id(self.field), self.a, self.b))

    def __repr__(self):
        if self.field.f == 1:
            return f"FF({self.a} mod {self.field.p})"
        return f"FF({self.a}+{self.b}s mod {self.field.p})"


class FiniteField:
    """F_q with q = p^f, an odd prime p and f in {1, 2}.

    Carries a fixed generator of the unit group, a fixed nonsquare ``eps``
    (taken to be the generator), the discrete-log table, and cached root-of-
    unity values used by the characters.
    """

    def __init__(self, p: int, f: int = 1, dlog_cap: int = DLOG_CAP):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if p == 2:
            raise EvenCharacteristic("characteristic 2 is not supported")
        if f not in (1, 2):
            raise UnsupportedDegree(f"extension degree {f} not in {{1, 2}}")
        self.p = p
        self.f = f
        self.q = p**f
        if self.q > dlog_cap:
            raise UnsupportedDegreeCap(self.q, dlog_cap)
        # nonsquare of the prime field used to present F_{p^2} = F_p(s)
        self._base_nonsquare = _smallest_generator_mod(p)
        self.zero = FFElem(self, 0)
        self.one = FFElem(self, 1)
        self.gen = self._find_generator()
        self.eps = self.gen
        self._dlog = {}
        x = self.one
        self._units_by_index = []
        for m in range(self.q - 1):
            self._dlog[x.key()] = m
            self._units_by_index.append(x)
            x = x * self.gen
        # exp(2*pi*i*m/(q-1)) and exp(2*pi*i*t/p) tables
        self._mult_roots = [
            cmath.exp(2j * cmath.pi * m / (self.q - 1)) for m in range(self.q - 1)
        ]
        self._add_roots = [cmath.exp(2j * cmath.pi * t / p) for t in range(p)]

    def coerce(self, x) -> FFElem:
        if isinstance(x, FFElem):
            if x.field is not self:
                raise WrongField("element of a different field")
            return x
        if isinstance(x, int):
            return FFElem(self, x)
        raise TypeError(f"cannot coerce {x!r} into F_{self.q}")

    def elem(self, a: int, b: int = 0) -> FFElem:
        return FFElem(self, a, b)

    def elements(self):
        if self.f == 1:
            return [FFElem(self, a) for a in range(self.p)]
        return [FFElem(self, a, b) for a in range(self.p) for b in range(self.p)]

    def units(self):
        return list(self._units_by_index)

    def dlog(self, x: FFElem) -> int:
        x = self.coerce(x)
        if x.is_zero():
            raise ZeroArgument("discrete log of zero")
        return self._dlog[x.key()]

    def sqrt(self, x: FFElem) -> FFElem:
        """The square root gen^(dlog(x)/2) of a nonzero square x."""
        d = self.dlog(x)
        if d % 2 != 0:
            raise SquareDiscriminant(f"{x} is not a square")
        return self.gen ** (d // 2)

    def _find_generator(self) -> FFElem:
        # deterministic: smallest a (then b) such that a + b*s generates
        order = self.q - 1
        factors = _prime_factors(order)
        for b in range(self.p if self.f == 2 else 1):
            for a in range(self.p):
                if a == 0 and b == 0:
                    continue
                x = FFElem(self, a, b)
                if all((x ** (order // r)) != self.one for r in factors):
                    return x
        raise AssertionError("no generator found")

    # characters -----------------------------------------------------------

    def psi(self, x) -> complex:
        """Additive character exp(2*pi*i*Tr_{k/F_p}(x)/p)."""
        x = self.coerce(x)
        t = x.a if self.f == 1 else (2 * x.a) % self.p
        return self._add_roots[t]

    def omega0(self) -> "MultCharacter":
        return MultCharacter(self, (self.q - 1) // 2)

    def trivial_char(self) -> "MultCharacter":
        return MultCharacter(self, 0)

    def __repr__(self):
        return f"FiniteField(p={self.p}, f={self.f})"


class UnsupportedDegreeCap(UnsupportedDegree):
    def __init__(self, q, cap):
        super().__init__(f"field size {q} exceeds discrete-log cap {cap}")


def _smallest_generator_mod(p: int) -> int:
    order = p - 1
    factors = _prime_factors(order)
    for g in range(2, p):
        if all(pow(g, order // r, p) != 1 for r in factors):
            return g
    raise AssertionError("no generator mod p")


def _prime_factors(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class MultCharacter:
    """Character of k^x sending gen^m to exp(2*pi*i*index*m/(q-1))."""

    __slots__ = ("field", "index")

    def __init__(self, field: FiniteField, index: int):
        self.field = field
        self.index = index % (field.q - 1)

    def __call__(self, x) -> complex:
        x = self.field.coerce(x)
        if x.is_zero():
            raise ZeroArgument("multiplicative character at zero")
        m = self.field.dlog(x)
        return self.field._mult_roots[(self.index * m) % (self.field.q - 1)]

    def value_at_index(self, m: int) -> complex:
        return self.field._mult_roots[(self.index * m) % (self.field.q - 1)]

    def __mul__(self, other: "MultCharacter") -> "MultCharacter":
        if other.field is not self.field:
            raise WrongField("characters of different fields")
        return MultCharacter(self.field, self.index + other.index)

    def __pow__(self, n: int) -> "MultCharacter":
        return MultCharacter(self.field, self.index * n)

    def __eq__(self, other):
        return (
            isinstance(other, MultCharacter)
            and other.field is self.field
            and other.index == self.index
        )

    def __hash__(self):
        return hash((id(self.field), self.index))

    def __repr__(self):
        return f"MultCharacter(q={self.field.q}, index={self.index})"


class QuadExtension:
    """The quadratic extension kt = k(sqrt(eps)) of a residue field k.

    Elements are pairs (x, y) of k-elements standing for x + y*sqrt(eps).
    Only the structure the exponential sums need is provided: enumeration,
    multiplication, relative norm and trace, and the lifted characters
    psi~ = psi o Tr and chi~ = chi o Nr.
    """

    def __init__(self, base: FiniteField):
        self.base = base
        self.eps = base.eps

    def mul(self, u, v):
        x1, y1 = u
        x2, y2 = v
        return (x1 * x2 + self.eps * y1 * y2, x1 * y2 + y1 * x2)

    def norm(self, u) -> FFElem:
        x, y = u
        return x * x - self.eps * y * y

    def trace(self, u) -> FFElem:
        x, _ = u
        return x + x

    def conj(self, u):
        x, y = u
        return (x, -y)

    def units(self):
        k = self.base
        out = []
        for x in k.elements():
            for y in k.elements():
                if not (x.is_zero() and y.is_zero()):
                    out.append((x, y))
        return out

    def psi_tilde(self, u) -> complex:
        return self.base.psi(self.trace(u))

    def chi_tilde(self, chi: MultCharacter, u) -> complex:
        nr = self.norm(u)
        if nr.is_zero():
            raise ZeroArgument("chi~ at a norm-zero element")
        return chi(nr)

    @cached_property
    def _eps_tilde(self):
        return next(u for u in self.units() if self.norm(u) == self.eps)

    def eps_tilde(self):
        """An element with relative norm eps, found by scan once per extension."""
        return self._eps_tilde


# spec-level operation wrappers ---------------------------------------------


@lru_cache(maxsize=None)
def _make_field_cached(p: int, f: int) -> FiniteField:
    return FiniteField(p, f)


def make_field(p: int, f: int = 1) -> FiniteField:
    """Construct (and cache) the residue field F_{p^f}."""
    return _make_field_cached(p, f)


@lru_cache(maxsize=None)
def quad_extension(k: FiniteField) -> QuadExtension:
    """Construct (and cache) the quadratic extension of the residue field k."""
    return QuadExtension(k)


def norm_trace(x: FFElem):
    """Relative norm and trace of x in F_{p^2} down to F_p."""
    if x.field.f != 2:
        raise WrongField("norm/trace need a quadratic field element")
    prime = make_field(x.field.p, 1)
    nr = (x.a * x.a - x.field._base_nonsquare * x.b * x.b) % x.field.p
    tr = (2 * x.a) % x.field.p
    return prime.elem(nr), prime.elem(tr)
