"""The one finite field F_{p^m} (`GF`, table-driven on int codes), and the
small residue fields F_q (q = p^f, f <= 2) with their characters.

Elements of F_{p^2} are written a + b*s with s^2 equal to a fixed nonsquare
of F_p, and a + b*s is the `make_gf(p, f)` code a + b*p.  The additive
character is psi(x) = exp(2*pi*i*Tr(x)/p).
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from operator import mul

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


def field_size(q: int) -> tuple[int, int]:
    """(p, f) with q = p^f for an odd prime p and f in {1, 2}: the sizes a
    residue field takes.  Any other q raises NotPrime."""
    root = math.isqrt(q) if q > 0 else 0
    p, f = (root, 2) if root * root == q else (q, 1)
    if p == 2 or not is_prime(p):
        raise NotPrime(f"{q} is not an odd prime or the square of one")
    return p, f


class FFElem:
    """Element a + b*s of F_{p^f}; b is 0 when f = 1.  Its code a + b*p
    indexes its field's element table, and every operation returns an entry
    of that table, read from the field's ``make_gf(p, f)`` tables."""

    __slots__ = ("field", "a", "b", "code")

    def __init__(self, field, a, b=0):
        self.field = field
        self.a = a % field.p
        self.b = b % field.p
        self.code = self.a + self.b * field.p

    def key(self):
        return (self.a, self.b)

    def is_zero(self):
        return self.code == 0

    def __add__(self, other):
        fld = self.field
        return fld._elems[fld._gf.add(self.code, fld.coerce(other).code)]

    __radd__ = __add__

    def __neg__(self):
        return self.field._elems[self.field._gf.neg(self.code)]

    def __sub__(self, other):
        fld = self.field
        return fld._elems[fld._gf.sub(self.code, fld.coerce(other).code)]

    def __rsub__(self, other):
        return self.field.coerce(other) - self

    def __mul__(self, other):
        fld = self.field
        return fld._elems[fld._gf.mul(self.code, fld.coerce(other).code)]

    __rmul__ = __mul__

    def inv(self):
        return self**-1

    def __truediv__(self, other):
        return self * self.field.coerce(other).inv()

    def __rtruediv__(self, other):
        return self.field.coerce(other) * self.inv()

    def __pow__(self, n: int):
        if n < 0 and self.is_zero():
            raise ZeroArgument("inverse of zero")
        return self.field._elems[self.field._gf.pow(self.code, n)]

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
        return self.field is other.field and self.code == other.code

    def __hash__(self):
        # by value; equal elements share one field, the one of their size
        return hash((self.field.p, self.field.f, self.a, self.b))

    def __repr__(self):
        if self.field.f == 1:
            return f"FF({self.a} mod {self.field.p})"
        return f"FF({self.a}+{self.b}s mod {self.field.p})"


class GF:
    """F_{p^m} on the ints 0..q-1: the element sum(c_i * x^i) is coded as
    sum(c_i * p^i), modulo the monic x^m + sum(modulus[i] * x^i).

    Multiplication and powers go through the exp/log tables of one generator,
    addition through the Zech table: g^i + g^j = g^(i + Z(j - i)), where
    g^Z(n) = 1 + g^n.  The generator is the first code of multiplicative
    order q - 1, found by an order test on the prime factors of q - 1; the
    exp table walks its powers by the F_p-linear map y -> g*y.
    """

    zero = 0
    one = 1

    def __init__(self, p: int, m: int, modulus: tuple):
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = modulus
        order = self._order = self.q - 1
        one = p_digits(1, p, m)
        # the first code g with g^((q-1)/r) != 1 for every prime r | q - 1
        cofactors = [order // r for r in range(2, order + 1) if order % r == 0 and is_prime(r)]
        g = next(
            g
            for g in (p_digits(code, p, m) for code in range(1, self.q))
            if all(_pow_mod(g, k, modulus, p) != one for k in cofactors)
        )
        # col[i] holds the digits of g*x^i in base m*p^2, a multiple of p
        # above m(p-1)^2: digit k of sum(y_i * col[i]) is g*y's before mod p
        pows, big = [p**k for k in range(m)], [(m * p * p) ** k for k in range(m)]
        col = [sum(map(mul, _mul_mod(g, p_digits(c, p, m), modulus, p), big)) for c in pows]
        exp, y = [1], g
        while y != one:
            exp.append(sum(map(mul, y, pows)))
            v = sum(map(mul, y, col))
            y = [v // b % p for b in big]
        self._exp = exp
        self.gen = exp[1]
        self._log = [None] * self.q
        self._neg = [0] * self.q  # -1 = g^((q-1)/2)
        for k, c in enumerate(exp):
            self._log[c] = k
            self._neg[c] = exp[(k + order // 2) % order]
        # 1 + g^n adds one to the constant digit of g^n
        self._zech = [self._log[c - c % p + (c + 1) % p] for c in exp]

    def elements(self):
        return range(self.q)

    def add(self, a, b):
        if not a or not b:
            return a or b
        i = self._log[a]
        z = self._zech[(self._log[b] - i) % self._order]
        return 0 if z is None else self._exp[(i + z) % self._order]

    def neg(self, a):
        return self._neg[a]

    def sub(self, a, b):
        return self.add(a, self._neg[b])

    def mul(self, a, b):
        if not a or not b:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % self._order]

    def pow(self, a, n):
        if not a:
            return 0 if n else 1
        return self._exp[(self._log[a] * n) % self._order]

    def in_prime_field(self, a):
        return a < self.p


def p_digits(code: int, p: int, m: int) -> list:
    """The base-p digits c_0, ..., c_{m-1} of code."""
    return [code // p**i % p for i in range(m)]


def _mul_mod(a, b, modulus, p):
    """Digit vectors a * b modulo x^m + sum(modulus[i] * x^i)."""
    m = len(modulus)
    out = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    for d in range(2 * m - 2, m - 1, -1):
        c = out[d] % p
        if c:
            for j in range(m):
                out[d - m + j] -= c * modulus[j]
    return [c % p for c in out[:m]]


def _pow_mod(a, n, modulus, p):
    """Digit vector a^n modulo the modulus, by square-and-multiply."""
    out = p_digits(1, p, len(modulus))
    while n:
        if n & 1:
            out = _mul_mod(out, a, modulus, p)
        a = _mul_mod(a, a, modulus, p)
        n >>= 1
    return out


def _is_irreducible(cs, p: int) -> bool:
    # Ben-Or's test: f of degree m is irreducible exactly when it has no
    # irreducible factor of degree k <= m/2, i.e. is coprime to x^(p^k) - x
    m = len(cs)
    t = x = [0, 1] + [0] * (m - 2)
    for _ in range(m // 2):
        t = _pow_mod(t, p, cs, p)
        if not _coprime(list(cs) + [1], [c - d for c, d in zip(t, x)], p):
            return False
    return True


def _coprime(a, b, p):
    """Whether the polynomials a and b over F_p (coefficient lists, lowest
    degree first) have gcd 1, by Euclid's algorithm."""
    while any(b):
        while not b[-1]:
            b.pop()
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a.pop() * inv
            shift = len(a) - len(b) + 1
            for i, y in enumerate(b[:-1]):
                a[shift + i] = (a[shift + i] - c * y) % p
        a, b = b, a
    return len(a) == 1


def _modulus(p: int, m: int) -> tuple:
    # F_p needs none.  F_{p^2} is x^2 - eps with eps the least primitive root
    # mod p: the residue fields' a + b*s presentation, so their dlogs,
    # character indices and report floats stay where they are.  Higher
    # degrees take the first irreducible in code order, which fixes the
    # Heisenberg sets, the greedy b-basis and the order of the character table.
    if m < 3:
        return (0,) if m == 1 else (-make_gf(p, 1).gen % p, 0)
    return next(
        tuple(cs)
        for cs in (p_digits(code, p, m) for code in range(p**m))
        if _is_irreducible(cs, p)
    )


@lru_cache(maxsize=None)
def make_gf(p: int, m: int) -> GF:
    """Construct (and cache) F_{p^m}, so its modulus and tables are found once."""
    return GF(p, m, _modulus(p, m))


class FiniteField:
    """F_q with q = p^f, an odd prime p and f in {1, 2}.

    Carries its q elements, built once and indexed by the code a + b*p of
    ``make_gf(p, f)``, a fixed generator of the unit group, a fixed nonsquare
    ``eps`` (taken to be the generator), and cached root-of-unity values used
    by the characters.  The generator, logs and arithmetic are those of
    ``make_gf(p, f)``.  There is one field per size: see ``make_field``.
    """

    def __new__(cls, p: int, f: int = 1):
        return _field(p, f)

    def __reduce__(self):
        # pickle and copy give back the one field of this size
        return make_field, (self.p, self.f)

    def _build(self, p: int, f: int):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if p == 2:
            raise EvenCharacteristic("characteristic 2 is not supported")
        if f not in (1, 2):
            raise UnsupportedDegree(f"extension degree {f} not in {{1, 2}}")
        self.p = p
        self.f = f
        self.q = p**f
        if self.q > DLOG_CAP:
            raise UnsupportedDegree(f"field size {self.q} exceeds discrete-log cap {DLOG_CAP}")
        gf = self._gf = make_gf(p, f)
        self._elems = [FFElem(self, c % p, c // p) for c in range(self.q)]
        self.zero, self.one = self._elems[:2]
        self._log = gf._log
        self._units_by_index = [self._elems[c] for c in gf._exp]
        self.gen = self._units_by_index[1]
        self.eps = self.gen
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
            return self._elems[x % self.p]
        raise TypeError(f"cannot coerce {x!r} into F_{self.q}")

    def elem(self, a: int, b: int = 0) -> FFElem:
        return self._elems[a % self.p + b % self.p * self.p]

    def elements(self):
        """All q elements, a slowest and b fastest."""
        return sorted(self._elems, key=FFElem.key)

    def units(self):
        return list(self._units_by_index)

    def dlog(self, x: FFElem) -> int:
        x = self.coerce(x)
        if x.is_zero():
            raise ZeroArgument("discrete log of zero")
        return self._log[x.code]

    def sqrt(self, x: FFElem) -> FFElem:
        """The square root gen^(dlog(x)/2) of a nonzero square x."""
        d = self.dlog(x)
        if d % 2 != 0:
            raise SquareDiscriminant(f"{x} is not a square")
        return self.gen ** (d // 2)

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
        return self.value_at_index(self.field.dlog(x))

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
        return hash((self.field.p, self.field.f, self.index))

    def __repr__(self):
        return f"MultCharacter(q={self.field.q}, index={self.index})"


class QuadExtension:
    """The quadratic extension kt = k(sqrt(eps)) of a residue field k.

    Elements are pairs (x, y) of k-elements standing for x + y*sqrt(eps).
    Only the structure the norm-constrained exponential sums read is
    provided: enumeration, relative norm and trace, and the lifted additive
    character psi~ = psi o Tr.
    """

    def __init__(self, base: FiniteField):
        self.base = base
        self.eps = base.eps

    def norm(self, u) -> FFElem:
        x, y = u
        return x * x - self.eps * y * y

    def trace(self, u) -> FFElem:
        x, _ = u
        return x + x

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


@lru_cache(maxsize=None)
def _field(p: int, f: int) -> FiniteField:
    fld = object.__new__(FiniteField)
    fld._build(p, f)
    return fld


def make_field(p: int, f: int = 1) -> FiniteField:
    """The residue field F_{p^f}, built once per size; the wrapper makes
    make_field(p) and make_field(p, 1) one cache entry."""
    return _field(p, f)


@lru_cache(maxsize=None)
def quad_extension(k: FiniteField) -> QuadExtension:
    """The quadratic extension of the residue field k, built once per field."""
    return QuadExtension(k)


@lru_cache(maxsize=None)
def eps_tilde(p: int) -> FFElem:
    """The first element of F_{p^2}, in ``elements`` order, of norm eps to F_p."""
    eps = make_field(p).eps
    return next(x for x in make_field(p, 2).elements() if norm_trace(x)[0] == eps)


def norm_trace(x: FFElem):
    """Relative norm x^(p+1) and trace 2a of x = a + b*s in F_{p^2} down to F_p."""
    p = x.field.p
    if x.field.f != 2:
        raise WrongField("norm/trace need a quadratic field element")
    prime = make_field(p, 1)
    return prime.elem((x ** (p + 1)).a), prime.elem(2 * x.a)
