"""Matrix models of the classical groups and their Iwahori filtrations.

Each group kind carries a rational weight vector describing the standard
alcove point; the three filtration steps I, I+, I++ become entry-valuation
masks ceil(r - x_i + x_j) at levels r = 0, 1/h, 2/h.  Simple affine
components are residues of designated entries (one of them pi-scaled, and a
quadratic-extension pair for the unramified even orthogonal group).
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
    UnsupportedDegree,
)
from .linalg import (
    charpoly,
    mat_eq,
    mat_id,
    mat_inv,
    mat_mul,
    mat_transpose,
    poly_mul,
    poly_shift_basis,
)
from .padic import LocalElem, TowerSpec
from .residue import make_field, norm_trace


class GroupKind(enum.Enum):
    GL = "gl"
    TWISTED_GL = "gl_theta"
    SP = "sp"
    SO_RAM = "so_ram"
    SO_SPL = "so_spl"
    SO_UR = "so_ur"


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

    @property
    def t_invariant(self):
        return 1 if self.kind is GroupKind.SO_UR else 0

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


def form(group: GroupId, base: TowerSpec):
    """The defining bilinear form matrix (None for the general linear kinds)."""
    N = group.size
    n = group.n
    k = base.residue_field
    if group.kind in (GroupKind.GL, GroupKind.TWISTED_GL):
        return None
    rows = [[base.zero() for _ in range(N)] for _ in range(N)]
    if group.kind is GroupKind.SP:
        for i in range(N):
            rows[i][N - 1 - i] = base.from_int((-1) ** i)
        return rows
    if group.kind is GroupKind.SO_SPL:
        for i in range(N):
            rows[i][N - 1 - i] = base.one()
        return rows
    if group.kind is GroupKind.SO_RAM:
        for i in range(N):
            if i not in (n - 1, n):
                rows[i][N - 1 - i] = base.one()
        rows[n - 1][n - 1] = base.one()
        star = base.from_int(-(k.eps.a ** group.nu_mu)) * base.pi()
        rows[n][n] = star
        return rows
    if group.kind is GroupKind.SO_UR:
        for i in range(N):
            if i not in (n, n + 1):
                rows[i][N - 1 - i] = base.one()
        rows[n][n] = base.one()
        rows[n + 1][n + 1] = base.from_int(-k.eps.a)
        return rows
    raise UnsupportedDegree(f"no form for {group.kind}")


@dataclass
class GroupMatrix:
    group: GroupId
    base: TowerSpec
    entries: list

    def __mul__(self, other: "GroupMatrix") -> "GroupMatrix":
        return GroupMatrix(self.group, self.base, mat_mul(self.entries, other.entries))

    def inv(self) -> "GroupMatrix":
        return GroupMatrix(self.group, self.base, mat_inv(self.entries))

    def neg(self) -> "GroupMatrix":
        return GroupMatrix(
            self.group, self.base, [[-x for x in row] for row in self.entries]
        )


def group_identity(group: GroupId, base: TowerSpec) -> GroupMatrix:
    return GroupMatrix(group, base, mat_id(base, group.size))


CHECK_DIGITS = 2


def is_member(g: GroupMatrix) -> bool:
    """Form-compatibility (and det 1 for the orthogonal kinds) to CHECK_DIGITS."""
    J = form(g.group, g.base)
    if J is None:
        try:
            mat_inv(g.entries)
            return True
        except PrecisionExhausted:
            return False
    lhs = mat_mul(mat_transpose(g.entries), mat_mul(J, g.entries))
    if not mat_eq(lhs, J, CHECK_DIGITS):
        return False
    if g.group.kind in (GroupKind.SO_RAM, GroupKind.SO_SPL, GroupKind.SO_UR):
        det = (-1) ** len(g.entries) * charpoly(g.entries)[0]
        if not det.equal_mod(g.base.one(), CHECK_DIGITS):
            return False
    return True


def theta(g: GroupMatrix) -> GroupMatrix:
    """The outer involution g -> J_N (g^T)^{-1} J_N^{-1} of the linear group,
    J_N antidiagonal with (i, N+1-i) entry (-1)^(i-1): entry (i, j) is
    (-1)^(i+j) t[N-1-i][N-1-j] for t = (g^T)^{-1}."""
    N = g.group.size
    t = mat_inv(mat_transpose(g.entries))
    out = [
        [t[N - 1 - i][N - 1 - j] if (i + j) % 2 == 0 else -t[N - 1 - i][N - 1 - j] for j in range(N)]
        for i in range(N)
    ]
    return GroupMatrix(g.group, g.base, out)


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


def _entry_val_ge(x: LocalElem, m: int, e: int) -> bool:
    """val(x) >= m (in pi-units) within what the precision can certify."""
    if x.is_zero():
        return True
    return x.phi_valuation() >= m * e


def _fits(g: GroupMatrix, mask, unipotent: bool) -> bool:
    """Off-diagonal entries meet the mask; diagonal entries are units, or
    1 mod pi when ``unipotent``."""
    e = g.base.e
    one = g.base.one()
    for i, row in enumerate(g.entries):
        for j, x in enumerate(row):
            if i != j:
                if not _entry_val_ge(x, mask[i][j], e):
                    return False
            elif unipotent:
                if not _entry_val_ge(x - one, 1, e):
                    return False
            elif x.is_zero() or x.phi_valuation() != 0:
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


def random_iplus(group: GroupId, base: TowerSpec, mask, rng: random.Random) -> GroupMatrix:
    """A seeded element with diagonal entries 1 + p*r and off-diagonal
    entries r*p^mask, r drawn row by row from 0..p-1."""
    p = base.p
    rows = []
    for i in range(group.size):
        row = []
        for j in range(group.size):
            r = rng.randrange(p)
            row.append(base.from_int(1 + p * r if i == j else r * p ** mask[i][j]))
        rows.append(row)
    return GroupMatrix(group, base, rows)


SAMPLE_TRIES = 200


def sample_iplus(group: GroupId, base: TowerSpec, mask, rng: random.Random, accept) -> GroupMatrix:
    """The first ``random_iplus`` draw that ``accept`` takes.  A draw on which
    ``accept`` raises an EndolabError is skipped; after SAMPLE_TRIES draws
    without one taken, HypothesisFailed is raised."""
    for _ in range(SAMPLE_TRIES):
        g = random_iplus(group, base, mask, rng)
        try:
            if accept(g):
                return g
        except EndolabError:
            continue
    raise HypothesisFailed(f"no accepted element in {SAMPLE_TRIES} draws")


def simple_affine_components(g: GroupMatrix):
    """Residue tuple attached to an element of I+."""
    if iwahori_level(g) < Level.IPLUS:
        raise NotInIplus("components are defined on I+ only")
    base = g.base
    out = []
    for slot in g.group.component_slots():
        if isinstance(slot[0], tuple):
            (i1, j1, _), (i2, j2, _) = slot
            a = _residue_at(g.entries[i1][j1], 0, base)
            b = _residue_at(g.entries[i2][j2], 0, base)
            kk = make_field(base.p, 2)
            out.append(kk.elem(a.a, b.a))
        else:
            i, j, s = slot
            out.append(_residue_at(g.entries[i][j], s, base))
    return out


def _residue_at(x: LocalElem, pi_power: int, base: TowerSpec):
    k = base.residue_field
    if x.is_zero():
        return k.zero
    v = x.phi_valuation()
    target = pi_power * base.e
    if v > target:
        return k.zero
    if v < target:
        raise NotInIplus(f"entry valuation {v} below slot level {target}")
    return x.leading_unit()


def is_affine_generic(g: GroupMatrix) -> bool:
    return all(not c.is_zero() for c in simple_affine_components(g))


# distinguished normalizer elements ------------------------------------------


def phi_element(group: GroupId, base: TowerSpec, *params) -> GroupMatrix:
    """The Iwahori-normalizing elements attached to each group kind."""
    N = group.size
    n = group.n
    Z = base.zero
    if group.kind in (GroupKind.GL, GroupKind.TWISTED_GL):
        (a,) = params
        rows = [[Z() for _ in range(N)] for _ in range(N)]
        for i in range(N - 1):
            rows[i][i + 1] = base.one()
        rows[N - 1][0] = base.from_residue(_res_int(a)) * base.pi()
        return GroupMatrix(group, base, rows)
    if group.kind is GroupKind.SO_SPL:
        alpha, beta = params
        ai = _res_int(alpha)
        bi = _res_int(beta)
        if ai == 0 or bi == 0:
            raise InvalidParams("phi parameters must be units")
        rows = [[Z() for _ in range(N)] for _ in range(N)]
        binv = (base.from_residue(bi) * base.pi()).inv()
        rows[0][N - 1] = binv
        for i in range(1, n):
            rows[i][i] = base.one()
        rows[n][n + 1] = base.from_residue(ai).inv()
        rows[n + 1][n] = base.from_residue(ai)
        for i in range(n + 2, N - 1):
            rows[i][i] = base.one()
        rows[N - 1][0] = base.from_residue(bi) * base.pi()
        return GroupMatrix(group, base, rows)
    if group.kind is GroupKind.SO_UR:
        alpha, beta = params
        # alpha = x + y*sqrt(eps) with norm 1, given as a residue-field pair
        k2 = make_field(base.p, 2)
        al = alpha if hasattr(alpha, "a") else k2.elem(alpha)
        bi = _res_int(beta)
        if bi == 0:
            raise InvalidParams("phi parameter beta must be a unit")
        if norm_trace(al)[0].a != 1:
            raise InvalidParams("alpha must have norm one")
        rows = [[Z() for _ in range(N)] for _ in range(N)]
        rows[0][N - 1] = (base.from_residue(bi) * base.pi()).inv()
        for i in range(1, n):
            rows[i][i] = base.one()
        eps = base.residue_field.eps.a
        rows[n][n] = base.from_residue(al.a)
        rows[n][n + 1] = base.from_residue(al.b)
        rows[n + 1][n] = base.from_residue((eps * al.b) % base.p)
        rows[n + 1][n + 1] = base.from_residue(al.a)
        for i in range(n + 2, N - 1):
            rows[i][i] = base.one()
        rows[N - 1][0] = base.from_residue(bi) * base.pi()
        # the form's -eps slot: negate column n+1
        for row in rows:
            row[n + 1] = -row[n + 1]
        return GroupMatrix(group, base, rows)
    raise InvalidParams(f"no phi element for {group.kind}")


def _res_int(a):
    return a.a if hasattr(a, "a") else int(a)


# characteristic-polynomial lemmas --------------------------------------------


def in_px_plus(g: GroupMatrix) -> bool:
    return _fits(g, px_plus_mask_at((g.group.size - 1) // 2), True)


def charpoly_shifted(g: GroupMatrix):
    """Coefficients of det(T - g) in powers of (T - 1), lowest first."""
    cp = charpoly(g.entries)
    return poly_shift_basis(cp, g.base)


def charpoly_eisenstein_check(g: GroupMatrix):
    """For affine generic Iwahori-unipotent linear elements: all lower
    coefficients in the maximal ideal and the constant term congruent to the
    product of the superdiagonal entries times the corner entry mod pi^2."""
    if iwahori_level(g) < Level.IPLUS:
        raise NotAffineGeneric("element is not in I+")
    if not is_affine_generic(g):
        raise NotAffineGeneric("element is not affine generic")
    N = g.group.size
    e = g.base.e
    coeffs = charpoly_shifted(g)
    ok = all(_entry_val_ge(coeffs[i], 1, e) for i in range(N))
    # det(1 - x) picks up a minus sign against the superdiagonal cycle
    prod = -g.entries[N - 1][0]
    for i in range(N - 1):
        prod = prod * g.entries[i][i + 1]
    ok = ok and coeffs[0].equal_mod(prod, 2 * e)
    a0_res = _residue_at(coeffs[0], 1, g.base) if not coeffs[0].is_zero() else None
    return ok, a0_res


def twisted_norm_charpoly_check(x: GroupMatrix, norm_y: GroupMatrix | None = None):
    """Characteristic polynomial of x*theta(x) for x in the odd filtration
    group: constant term vanishes, the linear term has the stated residue,
    and the polynomial factors through the supplied norm."""
    if not in_px_plus(x):
        raise NotInFiltration("element is not in the odd filtration subgroup")
    base = x.base
    N = x.group.size
    n = (N - 1) // 2
    z = mat_mul(x.entries, theta(x).entries)
    zg = GroupMatrix(x.group, base, z)
    coeffs = charpoly_shifted(zg)
    a0_zero = coeffs[0].is_zero() or coeffs[0].phi_valuation() >= 3 * base.e
    # a1 = -z_23...z_{2n-1,2n} (z_{2n,2n+1} z_{2n+1,2} + z_{2n,1} z_{1,2})
    t = -(z[2 * n - 1][2 * n] * z[2 * n][1] + z[2 * n - 1][0] * z[0][1])
    for i in range(1, 2 * n - 1):
        t = t * z[i][i + 1]
    a1_ok = coeffs[1].equal_mod(t, 2 * base.e)
    factor_ok = None
    if norm_y is not None:
        py = charpoly(norm_y.entries)
        lin = [base.from_int(-1), base.one()]
        prod = poly_mul(py, lin, base)
        pz = charpoly(z)
        factor_ok = all(
            a.equal_mod(b, min(a.abs_prec(), b.abs_prec()))
            for a, b in zip(prod, pz)
        )
    a1_res = None if coeffs[1].is_zero() else _residue_at(coeffs[1], 1, base)
    return a0_zero and a1_ok and (factor_ok is not False), a1_res
