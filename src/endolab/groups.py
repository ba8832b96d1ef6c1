"""Matrix models of the classical groups and their Iwahori filtrations.

Each group kind carries a rational weight vector describing the standard
alcove point; the three filtration steps I, I+, I++ become entry-valuation
masks ceil(r - x_i + x_j) at levels r = 0, 1/h, 2/h.  Simple affine
components are residues of designated entries (one of them pi-scaled, and a
quadratic-extension pair for the unramified even orthogonal group).

A group element is a ``GroupMatrix``: one scaled int matrix p^-s * A over
Q_p, with A known mod p^prec.  Valuations, masks, residues and both
characteristic-polynomial checks are read straight from A.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    EndolabError,
    HypothesisFailed,
    InvalidParams,
    NotAffineGeneric,
    NotInFiltration,
    NotInIplus,
    PrecisionExhausted,
)
from .linalg import charpoly, mat_inv, mat_mul, mat_transpose, poly_shift_basis
from .residue import make_field

# p-adic digits kept of an exactly known matrix, beyond its scale
EXACT_PREC = 12


class GroupKind(enum.Enum):
    GL = "gl"
    TWISTED_GL = "gl_theta"
    SP = "sp"
    SO_RAM = "so_ram"
    SO_SPL = "so_spl"
    SO_UR = "so_ur"


def rank_floor(kind: GroupKind) -> int:
    """The least rank: 2 on so_spl and so_ur (SO_{2n+2}), whose Kloosterman
    weights (1, 2, .., 2, 1, ..) start there, and 1 on the other kinds."""
    return 2 if kind in (GroupKind.SO_SPL, GroupKind.SO_UR) else 1


class Level(enum.IntEnum):
    OUTSIDE = 0
    I = 1
    IPLUS = 2
    IPLUSPLUS = 3


@dataclass(frozen=True)
class GroupId:
    """A group kind together with its rank parameter.

    For GL the parameter is the matrix size N itself; for the twisted GL it
    is n (size 2n); Sp and the ramified SO have size 2n; the split and
    unramified even orthogonal groups have size 2n+2.  ``nu_mu`` picks the
    middle entry -pi*eps^nu of the ramified orthogonal form.
    """

    kind: GroupKind
    n: int
    nu_mu: int = 0

    def __post_init__(self):
        floor = rank_floor(self.kind)
        if self.n < floor:
            raise InvalidParams(f"{self.kind.value} starts at rank {floor}, not n = {self.n}")

    @property
    def size(self):
        if self.kind is GroupKind.GL:
            return self.n
        if self.kind in (GroupKind.TWISTED_GL, GroupKind.SP, GroupKind.SO_RAM):
            return 2 * self.n
        return 2 * self.n + 2

    @property
    def coxeter(self):
        if self.kind in (GroupKind.GL, GroupKind.TWISTED_GL):
            return self.size
        return 2 * self.n

    def weight_vector(self):
        """Alcove point coordinates governing the filtration masks."""
        n = self.n
        if self.kind in (GroupKind.GL, GroupKind.TWISTED_GL):
            N = self.size
            return [Fraction(N - i, N) for i in range(1, N + 1)]
        if self.kind is GroupKind.SP:
            top = [Fraction(1, 4 * n) + Fraction(n - i, 2 * n) for i in range(1, n + 1)]
            return top + [-x for x in reversed(top)]
        if self.kind is GroupKind.SO_RAM:
            top = [Fraction(n - i, 2 * n) for i in range(1, n)]
            return top + [Fraction(0), Fraction(1, 2)] + [-x for x in reversed(top)]
        # split / unramified SO_{2n+2}
        top = [Fraction(n - i + 1, 2 * n) for i in range(1, n + 1)]
        return top + [Fraction(0), Fraction(0)] + [-x for x in reversed(top)]

    def component_slots(self):
        """Entry positions (0-based) whose residues are the simple affine
        components; each is (i, j, pi_power) and the unramified middle slot is
        a pair of entries combined into the quadratic extension."""
        n = self.n
        if self.kind in (GroupKind.GL, GroupKind.TWISTED_GL):
            N = self.size
            return [(i, i + 1, 0) for i in range(N - 1)] + [(N - 1, 0, 1)]
        if self.kind is GroupKind.SP:
            return [(i, i + 1, 0) for i in range(n)] + [(2 * n - 1, 0, 1)]
        if self.kind is GroupKind.SO_RAM:
            return [(i, i + 1, 0) for i in range(n - 1)] + [(n, 0, 0)]
        if self.kind is GroupKind.SO_SPL:
            return (
                [(i, i + 1, 0) for i in range(n)]
                + [(n - 1, n + 1, 0)]
                + [(2 * n, 0, 1)]
            )
        # SO_UR: n-1 plain slots, one quadratic pair, one pi-scaled slot
        return (
            [(i, i + 1, 0) for i in range(n - 1)]
            + [((n - 1, n, 0), (n - 1, n + 1, 0))]
            + [(2 * n, 0, 1)]
        )

    def __repr__(self):
        if self.kind is GroupKind.SO_RAM:
            return f"GroupId({self.kind.value}, n={self.n}, nu={self.nu_mu})"
        return f"GroupId({self.kind.value}, n={self.n})"


@dataclass(frozen=True)
class GroupMatrix:
    """The matrix p^-s * a of a group element over Q_p.

    ``a`` is a tuple of int rows known mod p^prec and kept in [0, p^prec);
    s >= 0 is the least scale that makes it integral, so s > 0 exactly when
    an entry has negative valuation.  An exactly known matrix defaults to
    prec = EXACT_PREC + s.  Products and inverses carry the precision, and
    reading a digit beyond it raises PrecisionExhausted."""

    group: GroupId
    p: int
    a: tuple
    s: int = 0
    prec: int | None = None

    def __post_init__(self):
        p, s, rows = self.p, self.s, self.a
        prec = EXACT_PREC + max(s, 0) if self.prec is None else self.prec
        if s < 0:
            rows = [[x * p**-s for x in row] for row in rows]
            prec, s = prec - s, 0
        mod = p**prec
        rows = tuple(tuple(x % mod for x in row) for row in rows)
        while s and not any(x % p for row in rows for x in row):
            if prec == 1:
                raise PrecisionExhausted("matrix indistinguishable from zero")
            rows = tuple(tuple(x // p for x in row) for row in rows)
            prec, s = prec - 1, s - 1
        object.__setattr__(self, "a", rows)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "prec", prec)

    def __mul__(self, other: "GroupMatrix") -> "GroupMatrix":
        prec = min(self.prec, other.prec)
        a = mat_mul(self.a, other.a, self.p**prec)
        return GroupMatrix(self.group, self.p, a, self.s + other.s, prec)

    def inv(self) -> "GroupMatrix":
        t, b, prec = mat_inv(self.a, self.p, self.prec)
        return GroupMatrix(self.group, self.p, b, t - self.s, prec)

    def neg(self) -> "GroupMatrix":
        rows = tuple(tuple(-x for x in row) for row in self.a)
        return GroupMatrix(self.group, self.p, rows, self.s, self.prec)

    def reduce(self, digits: int):
        """The rows of p^s * self (that is, a) mod p^digits."""
        if digits > self.prec:
            raise PrecisionExhausted(f"{digits} digits read of a matrix known to {self.prec}")
        mod = self.p**digits
        return [[x % mod for x in row] for row in self.a]


def theta(g: GroupMatrix) -> GroupMatrix:
    """The outer involution g -> J_N (g^T)^{-1} J_N^{-1} of the linear group,
    J_N antidiagonal with (i, N+1-i) entry (-1)^(i-1): entry (i, j) is
    (-1)^(i+j) t[N-1-i][N-1-j] for t = (g^T)^{-1}."""
    N = g.group.size
    t, b, prec = mat_inv(mat_transpose(g.a), g.p, g.prec)
    out = [
        [b[N - 1 - i][N - 1 - j] if (i + j) % 2 == 0 else -b[N - 1 - i][N - 1 - j] for j in range(N)]
        for i in range(N)
    ]
    return GroupMatrix(g.group, g.p, out, t - g.s, prec)


def _ceil_rule(x, level: Fraction):
    """Entry-valuation mask ceil(level - x_i + x_j) at the alcove point x."""
    return tuple(tuple(math.ceil(level - xi + xj) for xj in x) for xi in x)


@lru_cache(maxsize=None)
def iwahori_mask_at(group: GroupId, level: Fraction):
    """The group's filtration mask at ``level`` (0, 1/h, 2/h for I, I+, I++)."""
    return _ceil_rule(group.weight_vector(), level)


@lru_cache(maxsize=None)
def px_plus_mask_at(n: int):
    """The I+ mask of the odd general linear group GL_{2n+1} at the point
    whose weights are (2n+1-i)/2n, at level 1/2n."""
    N = 2 * n + 1
    x = [Fraction(N - i, 2 * n) for i in range(1, N + 1)]
    return _ceil_rule(x, Fraction(1, 2 * n))


def _val_ge(g: GroupMatrix, x: int, m: int) -> bool:
    """val(p^-s * x) >= m for an int x known mod p^prec, as g's entries are."""
    k = m + g.s
    if k <= 0:
        return True
    if k > g.prec:
        if x % g.p**g.prec == 0:
            raise PrecisionExhausted(f"valuation {m} read of an entry known to {g.prec - g.s} digits")
        return False
    return x % g.p**k == 0


def _fits(g: GroupMatrix, mask, unipotent: bool) -> bool:
    """Off-diagonal entries meet the mask; diagonal entries are units, or
    1 mod p when ``unipotent``."""
    one = g.p**g.s
    for i, row in enumerate(g.a):
        for j, x in enumerate(row):
            if i != j:
                if not _val_ge(g, x, mask[i][j]):
                    return False
            elif unipotent:
                if not _val_ge(g, x - one, 1):
                    return False
            elif not _val_ge(g, x, 0) or _val_ge(g, x, 1):
                return False
    return True


def iwahori_level(g: GroupMatrix) -> Level:
    """Deepest of I, I+, I++ containing g (entry-mask classification)."""
    h = g.group.coxeter
    if not _fits(g, iwahori_mask_at(g.group, Fraction(0)), False):
        return Level.OUTSIDE
    if not _fits(g, iwahori_mask_at(g.group, Fraction(1, h)), True):
        return Level.I
    if not _fits(g, iwahori_mask_at(g.group, Fraction(2, h)), True):
        return Level.IPLUS
    return Level.IPLUSPLUS


def random_iplus(group: GroupId, p: int, mask, rng: random.Random) -> GroupMatrix:
    """A seeded element with diagonal entries 1 + p*r and off-diagonal
    entries r*p^mask, r drawn row by row from 0..p-1."""
    rows = []
    for i in range(group.size):
        row = []
        for j in range(group.size):
            r = rng.randrange(p)
            row.append(1 + p * r if i == j else r * p ** mask[i][j])
        rows.append(row)
    return GroupMatrix(group, p, rows)


SAMPLE_TRIES = 200


def sample(draw, accept):
    """The first ``draw()`` that ``accept`` takes.  A draw on which ``accept``
    raises an EndolabError is skipped; after SAMPLE_TRIES draws without one
    taken, HypothesisFailed is raised."""
    for _ in range(SAMPLE_TRIES):
        g = draw()
        try:
            if accept(g):
                return g
        except EndolabError:
            continue
    raise HypothesisFailed(f"no accepted element in {SAMPLE_TRIES} draws")


def sample_iplus(group: GroupId, p: int, mask, rng: random.Random, accept) -> GroupMatrix:
    """The first ``random_iplus`` draw that ``accept`` takes (``sample``)."""
    return sample(lambda: random_iplus(group, p, mask, rng), accept)


def simple_affine_components(g: GroupMatrix):
    """Residue tuple attached to an element of I+."""
    if iwahori_level(g) < Level.IPLUS:
        raise NotInIplus("components are defined on I+ only")
    return _slot_components(g)


def _slot_components(g: GroupMatrix) -> list:
    """The components of g, read slot by slot; g must be in I+ (unchecked)."""
    k = make_field(g.p)
    out = []
    for slot in g.group.component_slots():
        if isinstance(slot[0], tuple):
            (i1, j1, _), (i2, j2, _) = slot
            a = _residue_at(g, g.a[i1][j1], 0)
            b = _residue_at(g, g.a[i2][j2], 0)
            out.append(make_field(g.p, 2).elem(a, b))
        else:
            i, j, s = slot
            out.append(k.elem(_residue_at(g, g.a[i][j], s)))
    return out


def _residue_at(g: GroupMatrix, x: int, pi_power: int) -> int:
    """The residue of p^-s * x / p^pi_power for an int x known mod p^prec, as
    g's entries are; x of valuation below pi_power is refused."""
    if not _val_ge(g, x, pi_power):
        raise NotInIplus(f"entry valuation below slot level {pi_power}")
    k = pi_power + g.s
    if k >= g.prec:
        raise PrecisionExhausted(f"digit {pi_power} read of an entry known to {g.prec - g.s} digits")
    return x // g.p**k % g.p


def is_affine_generic(g: GroupMatrix) -> bool:
    return all(not c.is_zero() for c in simple_affine_components(g))


# distinguished normalizer elements ------------------------------------------


def phi_element(group: GroupId, p: int, *params: int) -> GroupMatrix:
    """The Iwahori-normalizing element with the unit residue parameters
    ``params``: (a,) on the linear groups, the cycle with a*pi in its corner;
    (alpha, beta) on the split and (beta,) on the unramified even orthogonal
    group, swapping e_1 and e_N by beta*pi, with the middle 2x2 block
    antidiag(1/alpha, alpha), resp. diag(1, -1)."""
    N = group.size
    n = group.n
    if any(x % p == 0 for x in params):
        raise InvalidParams("phi parameters must be units")
    rows = [[0] * N for _ in range(N)]
    if group.kind in (GroupKind.GL, GroupKind.TWISTED_GL):
        (a,) = params
        for i in range(N - 1):
            rows[i][i + 1] = 1
        rows[N - 1][0] = a * p
        return GroupMatrix(group, p, rows)
    # the rows of p * phi: the corner 1/(beta*pi) puts phi at scale 1
    mod = p ** (EXACT_PREC + 1)
    if group.kind is GroupKind.SO_SPL:
        alpha, beta = params
        rows[n][n + 1] = p * pow(alpha, -1, mod)
        rows[n + 1][n] = p * alpha
    elif group.kind is GroupKind.SO_UR:
        (beta,) = params
        rows[n][n] = p
        rows[n + 1][n + 1] = -p
    else:
        raise InvalidParams(f"no phi element for {group.kind}")
    rows[0][N - 1] = pow(beta, -1, mod)
    for i in list(range(1, n)) + list(range(n + 2, N - 1)):
        rows[i][i] = p
    rows[N - 1][0] = beta * p * p
    return GroupMatrix(group, p, rows, 1)


# characteristic-polynomial lemmas --------------------------------------------


def in_px_plus(g: GroupMatrix) -> bool:
    return _fits(g, px_plus_mask_at((g.group.size - 1) // 2), True)


def charpoly_eisenstein_check(g: GroupMatrix):
    """For affine generic Iwahori-unipotent linear elements: all lower
    coefficients of det(T - g), in powers of (T - 1), in the maximal ideal and
    the constant term congruent to the product of the superdiagonal entries
    times the corner entry mod pi^2."""
    if iwahori_level(g) < Level.IPLUS:
        raise NotAffineGeneric("element is not in I+")
    if any(c.is_zero() for c in _slot_components(g)):
        raise NotAffineGeneric("element is not affine generic")
    N = g.group.size
    mod = g.p**g.prec
    coeffs = poly_shift_basis(charpoly(g.a, mod), mod)
    ok = all(_val_ge(g, coeffs[i], 1) for i in range(N))
    # det(1 - x) picks up a minus sign against the superdiagonal cycle
    prod = -g.a[N - 1][0]
    for i in range(N - 1):
        prod = prod * g.a[i][i + 1]
    ok = ok and _val_ge(g, (coeffs[0] - prod) % mod, 2)
    a0_res = make_field(g.p).elem(_residue_at(g, coeffs[0], 1)) if coeffs[0] else None
    return ok, a0_res


def twisted_norm_charpoly_check(x: GroupMatrix, norm_y: GroupMatrix | None = None):
    """Characteristic polynomial of x*theta(x) for x in the odd filtration
    group: constant term vanishes, the linear term has the stated residue,
    and the polynomial factors through the supplied (integral) norm."""
    if not in_px_plus(x):
        raise NotInFiltration("element is not in the odd filtration subgroup")
    p = x.p
    N = x.group.size
    n = (N - 1) // 2
    zg = x * theta(x)
    z = zg.a
    mod = p**zg.prec
    pz = charpoly(z, mod)
    coeffs = poly_shift_basis(pz, mod)
    a0_zero = _val_ge(zg, coeffs[0], 3)
    # a1 = -z_23...z_{2n-1,2n} (z_{2n,2n+1} z_{2n+1,2} + z_{2n,1} z_{1,2})
    t = -(z[2 * n - 1][2 * n] * z[2 * n][1] + z[2 * n - 1][0] * z[0][1])
    for i in range(1, 2 * n - 1):
        t = t * z[i][i + 1]
    a1_ok = _val_ge(zg, (coeffs[1] - t) % mod, 2)
    factor_ok = None
    if norm_y is not None:
        py = charpoly(norm_y.a, p**norm_y.prec)
        common = p ** min(zg.prec, norm_y.prec)
        # the coefficients of py * (T - 1) against those of pz
        factor_ok = all((b - a - c) % common == 0 for a, b, c in zip(py + [0], [0] + py, pz))
    a1_res = None if coeffs[1] == 0 else make_field(p).elem(_residue_at(zg, coeffs[1], 1))
    return a0_zero and a1_ok and (factor_ok is not False), a1_res
