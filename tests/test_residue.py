import copy
import pickle

import pytest

from endolab import sums
from endolab.errors import (
    EvenCharacteristic,
    NotPrime,
    SquareDiscriminant,
    UnsupportedDegree,
    WrongField,
    ZeroArgument,
)
from endolab.residue import (
    FiniteField,
    MultCharacter,
    QuadExtension,
    _is_irreducible,
    _modulus,
    eps_tilde,
    make_field,
    make_gf,
    norm_trace,
    quad_extension,
)


def test_make_field_f3():
    k = make_field(3)
    assert k.q == 3 and k.gen.a == 2 and k.eps.a == 2


def test_make_field_f7_generator_by_enumeration():
    k = make_field(7)
    # oracle: smallest g whose order mod 7 is 6
    def order(g):
        x, m = g, 1
        while x != 1:
            x = x * g % 7
            m += 1
        return m

    smallest = next(g for g in range(2, 7) if order(g) == 6)
    assert smallest == 3
    assert k.gen.a == 3


def _first_generator(p, f):
    """The first code a + b*p of order p^f - 1, by counting orders with
    F_{p^2} = F_p(s), s^2 = the least primitive root mod p."""
    def order(mul, g, one):
        x, m = g, 1
        while x != one:
            x = mul(x, g)
            m += 1
        return m

    eps = next(g for g in range(1, p) if order(lambda x, y: x * y % p, g, 1) == p - 1)
    if f == 1:
        return eps

    def mul2(x, y):
        (a, b), (c, d) = x, y
        return ((a * c + eps * b * d) % p, (a * d + b * c) % p)

    return next(
        code
        for code in range(1, p * p)
        if order(mul2, (code % p, code // p), (1, 0)) == p * p - 1
    )


@pytest.mark.parametrize("f", [1, 2])
@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_make_field_generator_is_first_in_code_order(p, f):
    k = make_field(p, f)
    assert k.gen.a + k.gen.b * p == _first_generator(p, f)


def _digits_mul(a, b, modulus, p):
    """Digit vectors a * b by long multiplication, then division by the monic
    x^m + sum(modulus[i] * x^i) from the top down."""
    m = len(modulus)
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for d in reversed(range(m, 2 * m - 1)):
        top, prod[d] = prod[d], 0
        for i, c in enumerate(modulus):
            prod[d - m + i] -= top * c
    return [c % p for c in prod[:m]]


@pytest.mark.parametrize("p,m,gen", [(3, 4, 3), (5, 4, 6), (3, 8, 38)])
def test_gf_generator_is_first_code_of_full_order(p, m, gen):
    F = make_gf(p, m)
    one = [1] + [0] * (m - 1)

    def walk(code):
        # the powers code^0, code^1, ... up to the first return to one
        g = [code // p**i % p for i in range(m)]
        powers, x = [one], g
        while x != one:
            powers.append(x)
            x = _digits_mul(x, g, F.modulus, p)
        return powers

    powers = walk(F.gen)
    assert F.gen == gen
    assert len(powers) == F.q - 1
    assert all(len(walk(code)) < F.q - 1 for code in range(1, F.gen))
    # the exp table is that walk, coded, and the log table inverts it
    assert F._exp == [sum(c * p**i for i, c in enumerate(x)) for x in powers]
    assert F._log[0] is None
    assert [F._log[c] for c in F._exp] == list(range(F.q - 1))


def _has_monic_factor(modulus, p, degree):
    """Whether x^m + sum(modulus[i] * x^i) has a monic factor of the given
    degree over F_p, by trial division with every such polynomial."""
    for code in range(p**degree):
        g = [code // p**i % p for i in range(degree)] + [1]
        rem = list(modulus) + [1]
        for d in reversed(range(degree, len(rem))):
            top = rem.pop()
            for i, c in enumerate(g[:-1]):
                rem[d - degree + i] -= top * c
        if all(c % p == 0 for c in rem):
            return True
    return False


def test_a_reducible_sextic_is_refused():
    """x^6 + x + 1 has the root 1 over F_3.  The degree-6 modulus, which the
    [3-6] case below finds free of factors of degree 1, 2 and 3, gives a
    field whose exp walk reaches every unit."""
    assert _has_monic_factor((1, 1, 0, 0, 0, 0), 3, 1)
    assert not _is_irreducible((1, 1, 0, 0, 0, 0), 3)
    assert len(set(make_gf(3, 6)._exp)) == 3**6 - 1


@pytest.mark.parametrize("p,m", [(3, 4), (5, 4), (3, 6), (3, 8)])
def test_modulus_is_the_first_irreducible_in_code_order(p, m):
    """The modulus is the first code with no monic factor of degree <= m/2,
    found here by trial division."""
    def irreducible(cs):
        return not any(_has_monic_factor(cs, p, d) for d in range(1, m // 2 + 1))

    first = next(cs for cs in ([code // p**i % p for i in range(m)] for code in range(p**m)) if irreducible(cs))
    assert _modulus(p, m) == tuple(first)


@pytest.mark.parametrize("f", [1, 2])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_field_operations_are_the_schoolbook_law(p, f):
    """Sums, differences, negatives, products and inverses are the (a, b)
    schoolbook results of F_p(s), s^2 = eps, and each is the field's own
    table entry."""
    k = make_field(p, f)
    eps = make_field(p).eps.a

    def mul(x, y):
        (a, b), (c, d) = x, y
        return ((a * c + eps * b * d) % p, (a * d + b * c) % p)

    def inv(x):
        a, b = x
        r = pow((a * a - eps * b * b) % p, -1, p)
        return (a * r % p, -b * r % p)

    for x in k.elements():
        (a, b) = xk = x.key()
        results = [(-x, (-a % p, -b % p))]
        if not x.is_zero():
            results.append((x.inv(), inv(xk)))
        for y in k.elements():
            c, d = y.key()
            results += [
                (x + y, ((a + c) % p, (b + d) % p)),
                (x - y, ((a - c) % p, (b - d) % p)),
                (x * y, mul(xk, (c, d))),
            ]
        for r, expect in results:
            assert r.key() == expect
            assert k.elem(*r.key()) is r
    with pytest.raises(ZeroArgument):
        k.zero.inv()


def test_make_field_f9():
    k = make_field(3, 2)
    assert k.q == 9
    assert (k.gen ** 8) == k.one and (k.gen ** 4) != k.one


@pytest.mark.parametrize(
    "p, f, exc",
    [(4, 1, NotPrime), (2, 1, EvenCharacteristic), (5, 3, UnsupportedDegree)],
)
def test_make_field_rejects(p, f, exc):
    with pytest.raises(exc):
        FiniteField(p, f)


def test_eps_is_nonsquare():
    for p, f in [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (3, 2)]:
        k = make_field(p, f)
        assert k.eps ** ((k.q - 1) // 2) == -k.one


def test_omega0_values():
    k = make_field(7)
    w0 = k.omega0()
    assert abs(w0(k.eps) + 1) < 1e-12
    triv = k.trivial_char()
    for x in k.units():
        assert abs(triv(x) - 1) < 1e-12
    # (-1)^((7-1)/2) = -1 by the hand oracle
    assert pow(-1, 3) == -1
    assert abs(w0(k.coerce(-1)) + 1) < 1e-12


def test_mult_char_at_zero_raises():
    k = make_field(5)
    with pytest.raises(ZeroArgument):
        k.omega0()(k.zero)


def test_additive_character():
    k3 = make_field(3)
    assert abs(k3.psi(k3.zero) - 1) < 1e-12
    assert abs(sum(k3.psi(x) for x in k3.elements())) < 1e-12
    # psi over F_9 at sqrt(eps): trace is 0, so the value is 1
    k9 = make_field(3, 2)
    root = k9.elem(0, 1)
    _, tr = norm_trace(root)
    assert tr.is_zero()
    assert abs(k9.psi(root) - 1) < 1e-12


def test_psi_additive():
    k = make_field(7)
    xs = k.elements()
    for x in xs[:4]:
        for y in xs[3:]:
            assert abs(k.psi(x + y) - k.psi(x) * k.psi(y)) < 1e-12


def test_norm_trace_prime_subfield():
    k9 = make_field(3, 2)
    for a in range(3):
        nr, tr = norm_trace(k9.elem(a))
        assert nr.a == (a * a) % 3 and tr.a == (2 * a) % 3
    with pytest.raises(WrongField):
        norm_trace(make_field(5).one)


def test_norm_surjective_and_kernel_size():
    k9 = make_field(3, 2)
    k3 = make_field(3)
    image = set()
    kernel = 0
    for x in k9.units():
        nr, _ = norm_trace(x)
        image.add(nr.a)
        if nr.a == 1:
            kernel += 1
    assert image == {1, 2}
    assert kernel == 3 + 1


@pytest.mark.parametrize("p,f", [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (5, 2), (7, 2), (11, 2), (13, 2)])
def test_character_orthogonality(p, f):
    k = make_field(p, f)
    for idx in range(1, min(k.q - 1, 6)):
        chi = MultCharacter(k, idx)
        assert abs(sum(chi(x) for x in k.units())) < 1e-10


@pytest.mark.parametrize("p,f", [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (5, 2), (7, 2), (11, 2), (13, 2)])
def test_omega0_matches_squares(p, f):
    k = make_field(p, f)
    squares = {(x * x).key() for x in k.units()}
    w0 = k.omega0()
    for x in k.units():
        expected = 1 if x.key() in squares else -1
        assert abs(w0(x) - expected) < 1e-12


@pytest.mark.parametrize("p,f", [(3, 1), (5, 1), (7, 1), (13, 1), (3, 2), (5, 2)])
def test_sqrt_squares_back_and_rejects_nonsquares(p, f):
    k = make_field(p, f)
    squares = {(x * x).key() for x in k.units()}
    for x in k.units():
        if x.key() in squares:
            assert k.sqrt(x) * k.sqrt(x) == x
        else:
            with pytest.raises(SquareDiscriminant):
                k.sqrt(x)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_lifted_characters_match_direct_quadratic_field(p):
    """psi o Tr and the norm through the generic extension agree with direct
    evaluation in F_{p^2}."""
    k = make_field(p)
    k2 = make_field(p, 2)
    ext = QuadExtension(k)
    for x in k2.elements():
        if x.is_zero():
            continue
        pair = (k.elem(x.a), k.elem(x.b))
        nr, tr = norm_trace(x)
        assert ext.norm(pair).a == nr.a
        assert abs(ext.psi_tilde(pair) - k2.psi(x)) < 1e-12


def test_eps_tilde_has_norm_eps():
    """eps~ is the first element of F_{p^2}, in ``elements`` order, of norm
    eps: the norm taken as x^(p+1) and as the pairs-based extension's."""
    for p in (3, 5, 7):
        k, K = make_field(p), make_field(p, 2)
        x = eps_tilde(p)
        assert x.field is K and x ** (p + 1) == K.elem(k.eps.a)
        assert QuadExtension(k).norm((k.elem(x.a), k.elem(x.b))) == k.eps
        before = K.elements()[: K.elements().index(x)]
        assert all(y ** (p + 1) != K.elem(k.eps.a) for y in before)
        assert eps_tilde(p) is x


@pytest.mark.parametrize("p,f", [(3, 1), (5, 1), (3, 2)])
def test_pickle_and_copy_give_back_the_one_field(p, f):
    k = make_field(p, f)
    for clone in (lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy, copy.copy):
        assert clone(k) is k
        x, chi = clone(k.gen), clone(k.omega0())
        assert x == k.gen and x.field is k
        assert chi == k.omega0() and chi.field is k


def test_one_field_per_size(monkeypatch):
    """FiniteField(p, f) is the make_field field of its size, built once: the
    quadratic extension and every named spec are one object per field,
    whichever constructor built that field."""
    sizes = [(3, 1), (5, 1), (13, 1), (3, 2)]
    for p, f in sizes:
        k = make_field(p, f)
        assert FiniteField(p, f) is k
        if f == 1:
            assert FiniteField(p) is k and make_field(p) is k
        assert quad_extension(FiniteField(p, f)) is quad_extension(k)
        assert quad_extension(k).base is k
        assert sums.kl_simple(FiniteField(p, f), 2) is sums.kl_simple(k, 2)
        for build in (sums.sp_spec, sums.so_split_spec, sums.so_unramified_spec):
            for twisted in (False, True):
                spec = build(FiniteField(p, f), 2, twisted=twisted)
                assert spec is build(k, 2, twisted=twisted) and spec.field is k
    # a second construction of a size builds nothing
    monkeypatch.setattr(FiniteField, "_build", None)
    for p, f in sizes:
        assert FiniteField(p, f) is make_field(p, f)
