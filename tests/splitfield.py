"""The blocks of kG over GF(p^l), the field that splits them: the route
that `hh1lab.groupalgebra` replaced by its split over F_p, kept as the
reference it is checked against.

GF(p^m) arithmetic: every element is an int in ``[0, q)`` whose base-p
digits are its coefficients over F_p, constant term first, modulo the
lex-least monic irreducible of degree m.  `ExtField` chooses its
arithmetic once, when it is built: prime fields reduce mod p; GF(2^m)
multiplies carry-less on the bits; odd fields of order at most
``LOG_TABLE_MAX_ORDER`` read exp/log/Zech tables; larger odd fields
multiply digit vectors as polynomials.  Each kind binds ``frobenius``,
a -> a^p.  `poly_factor` finds the roots of a polynomial that splits over
the field, in m Frobenius steps; `distinct_degrees` reads the degrees of
a polynomial's irreducible factors over F_p.

The route: l is the lcm of the F_p-irreducible factor degrees of the
class sums' minimal polynomials (`splitting_degree`); the center of kG
over GF(p^l) is split into primitive idempotents by the package's own
worklist helpers, each with its central character; the Frobenius orbit
of a block idempotent sums to e_O (`orbit_class_sum`).
"""

import functools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest
from random import Random

import numpy as np

from hh1lab.errors import (DegreeOutOfRange, DivisionByZero, NotPrime,
                           SplitFieldTooSmall)
from hh1lab.ffield import (is_prime, poly_add, poly_deriv, poly_divmod,
                           poly_gcd, poly_mod, poly_monic, poly_pow_mod,
                           poly_sub, poly_trim, prime_factors)
from hh1lab.groupalgebra import (MATERIALIZE_DIM_CAP, _block_dimension,
                                 _min_poly, _min_poly_in_subalgebra,
                                 _split_idempotent, center, group_algebra)

LOG_TABLE_MAX_ORDER = 1 << 16


# ---------------------------------------------------------------------------
# GF(2)[t] on packed ints: bit i of the int is the coefficient of t^i.
# ---------------------------------------------------------------------------

_SPREAD = [0] * 256
for _b in range(256):
    _s = 0
    for _i in range(8):
        if _b >> _i & 1:
            _s |= 1 << (2 * _i)
    _SPREAD[_b] = _s


def _gf2p_mul(a, b):
    if a == 0 or b == 0:
        return 0
    res = 0
    while b:
        low = b & -b
        res ^= a << (low.bit_length() - 1)
        b ^= low
    return res


def _gf2p_sq(a):
    res = 0
    shift = 0
    while a:
        res |= _SPREAD[a & 0xFF] << shift
        a >>= 8
        shift += 16
    return res


def _gf2p_mod(a, f):
    df = f.bit_length() - 1
    while a.bit_length() - 1 >= df and a:
        a ^= f << (a.bit_length() - 1 - df)
    return a


def _gf2p_divmod(a, f):
    df = f.bit_length() - 1
    q = 0
    while a.bit_length() - 1 >= df and a:
        shift = a.bit_length() - 1 - df
        q |= 1 << shift
        a ^= f << shift
    return q, a


def _gf2p_gcd(a, b):
    while b:
        a, b = b, _gf2p_mod(a, b)
    return a


def _gf2p_irreducible(f):
    """Rabin irreducibility test for a monic packed poly over GF(2)."""
    m = f.bit_length() - 1
    if m < 1:
        return False
    checkpoints = {m // q for q in prime_factors(m)}
    r = 2  # the polynomial t
    for j in range(1, m + 1):
        r = _gf2p_mod(_gf2p_sq(r), f)
        if j in checkpoints and _gf2p_gcd(r ^ 2, f) != 1:
            return False
    return r == 2


# ---------------------------------------------------------------------------
# F_p[t] on coefficient tuples (ascending powers), p odd prime.
# ---------------------------------------------------------------------------


def _fpp_trim(c):
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def _fpp_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _fpp_trim(out)


def _fpp_mod(a, f, p):
    # f monic
    a = list(a)
    df = len(f) - 1
    while len(a) - 1 >= df and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - df
            for i, fi in enumerate(f):
                a[shift + i] = (a[shift + i] - lead * fi) % p
        a.pop()
    return _fpp_trim(a)


# ---------------------------------------------------------------------------
# Field construction
# ---------------------------------------------------------------------------


def _digits(a, p):
    """Base-p digits of a, least significant first, without trailing zeros."""
    out = []
    while a:
        a, r = divmod(a, p)
        out.append(r)
    return tuple(out)


def _undigits(c, p):
    a = 0
    for x in reversed(c):
        a = a * p + x
    return a


def _fpp_mul_int(a, b, p, modulus):
    """Product of two elements of F_p[t]/(modulus) as base-p digit ints."""
    return _undigits(_fpp_mod(_fpp_mul(_digits(a, p), _digits(b, p), p),
                              modulus, p), p)


def _power(mul, a, e):
    result = 1
    while e:
        if e & 1:
            result = mul(result, a)
        a = mul(a, a)
        e >>= 1
    return result


def _nonzero(inv):
    """inv, raising DivisionByZero at zero."""
    def checked(a):
        if not a:
            raise DivisionByZero("inverse of zero")
        return inv(a)
    return checked


def _prime_ops(p):
    """add, neg, mul, inv, frobenius of F_p; Frobenius is the identity."""
    return (lambda a, b: (a + b) % p, lambda a: -a % p,
            lambda a, b: a * b % p,
            _nonzero(lambda a: pow(a, p - 2, p)), lambda a: a)


def _gf2_ops(m, modulus):
    """The operations of GF(2^m) on bits: carry-less products folded back
    by the modulus tail, inverses by extended Euclid in GF(2)[t], and a^2
    by spreading the bits."""
    tail = [e for e in range(m) if modulus[e]]  # t^m = sum of t^e over them
    mask = (1 << m) - 1
    modint = mask + 1 + sum(1 << e for e in tail)

    def reduce(a):
        # fold the part at t^m and above onto the tail until none is left
        while hi := a >> m:
            a &= mask
            for e in tail:
                a ^= hi << e
        return a

    def inv(a):
        r0, r1, s0, s1 = modint, a, 0, 1
        while r1:
            quo, r = _gf2p_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 ^ _gf2p_mul(quo, s1)
        return reduce(s0)

    return (operator.xor, lambda a: a,
            lambda a, b: reduce(_gf2p_mul(a, b)), _nonzero(inv),
            lambda a: reduce(_gf2p_sq(a)))


@lru_cache(maxsize=None)
def _log_ops(p, modulus):
    """The operations of F_p[t]/(modulus), p odd, by tables built once from
    its least primitive element g: ``exp[i] = g^i`` for 0 <= i < 2(q-1),
    ``log`` the inverse map on nonzero elements, ``zech[n] = log(1 + g^n)``
    (None where 1 + g^n = 0) and ``neg[a] = -a``.  Indices into zech may be
    negative, modulo q-1."""
    q = p ** (len(modulus) - 1)

    def slow_mul(a, b):
        return _fpp_mul_int(a, b, p, modulus)

    g = next(g for g in range(p, q)
             if all(_power(slow_mul, g, (q - 1) // r) != 1
                    for r in prime_factors(q - 1)))
    exp = [1]
    for _ in range(q - 2):
        exp.append(slow_mul(exp[-1], g))
    log = [None] * q
    for i, x in enumerate(exp):
        log[x] = i
    # 1 + x raises only the constant digit of x
    zech = [log[x - x % p + (x + 1) % p] for x in exp]
    exp += exp
    neg = [0] + [exp[log[x] + (q - 1) // 2] for x in range(1, q)]

    def add(a, b):
        if not a:
            return b
        if not b:
            return a
        z = zech[log[b] - log[a]]
        return 0 if z is None else exp[log[a] + z]

    return (add, neg.__getitem__,
            lambda a, b: exp[log[a] + log[b]] if a and b else 0,
            _nonzero(lambda a: exp[-log[a]]),
            lambda a: exp[log[a] * p % (q - 1)] if a else 0)


def _poly_ops(p, modulus):
    """The operations of an odd GF(q) on base-p digit vectors."""
    q = p ** (len(modulus) - 1)

    def mul(a, b):
        return _fpp_mul_int(a, b, p, modulus) if a and b else 0

    def add(a, b):
        return _undigits([(x + y) % p for x, y in zip_longest(
            _digits(a, p), _digits(b, p), fillvalue=0)], p)

    return (add, lambda a: _undigits([-x % p for x in _digits(a, p)], p),
            mul, _nonzero(lambda a: _power(mul, a, q - 2)),
            lambda a: _power(mul, a, p))


@dataclass(frozen=True)
class ExtField:
    """A finite field GF(p^m) with a fixed irreducible modulus.

    ``modulus`` is the monic degree-m polynomial as a coefficient tuple,
    constant term first.  `field_make` always picks the same modulus for
    the same (p, m); an ExtField built directly uses the one it is given.

    Construction chooses the arithmetic once, by the field's kind: prime,
    GF(2^m), odd of order at most ``LOG_TABLE_MAX_ORDER`` (log tables),
    larger odd (digit vectors).  It binds ``add``, ``neg``, ``mul``,
    ``inv`` and ``frobenius`` (a -> a^p) as instance attributes, so a call
    reads no kind.  ``inv(0)`` raises DivisionByZero in every kind.
    """

    p: int
    m: int
    modulus: tuple

    def __post_init__(self):
        if self.m == 1:
            ops = _prime_ops(self.p)
        elif self.p == 2:
            ops = _gf2_ops(self.m, self.modulus)
        elif self.order <= LOG_TABLE_MAX_ORDER:
            ops = _log_ops(self.p, self.modulus)
        else:
            ops = _poly_ops(self.p, self.modulus)
        for name, op in zip(("add", "neg", "mul", "inv", "frobenius"), ops):
            object.__setattr__(self, name, op)

    @property
    def order(self):
        return self.p ** self.m

    # -- raw constants ------------------------------------------------------

    zero = 0
    one = 1

    def from_int(self, n):
        """Embed an integer via the prime subfield."""
        return n % self.p

    def is_zero(self, a):
        return a == 0

    # -- raw arithmetic beyond the bound operations -------------------------

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        return _power(self.mul, a, e)

    def elements(self):
        """All raw elements in ascending order (small fields only)."""
        if self.order > 1 << 20:
            raise DegreeOutOfRange("field too large to enumerate")
        return range(self.order)

    def coeffs(self, a):
        """Coefficient tuple (length m, constant first) of a raw element."""
        c = _digits(a, self.p)
        return c + (0,) * (self.m - len(c))


@lru_cache(maxsize=None)
def _lex_least_irreducible(p, m):
    """Monic irreducible of degree m over F_p whose tail coefficient vector
    (constant term first) is smallest when read as a little-endian base-p
    integer.  The scan order is what makes field construction reproducible.
    """
    if m == 1:
        return (0, 1)  # the polynomial t
    # value - p^m runs through the tails; the digits of value are f itself.
    # The first p make t^m + c, none irreducible when a prime factor of m
    # misses p - 1, or 4 | m and p = 3 mod 4 (Lidl-Niederreiter Thm 3.75).
    skip = (any((p - 1) % r for r in prime_factors(m))
            or m % 4 == 0 and p % 4 == 3)
    for value in range(p ** m + p * skip, 2 * p ** m):
        if (_gf2p_irreducible(value) if p == 2
                else _irreducible(_digits(value, p), p)):
            return _digits(value, p)
    raise DegreeOutOfRange(f"no irreducible of degree {m} over F_{p}")  # pragma: no cover


def _irreducible(f, p):
    """Rabin's test for a monic coefficient tuple f of degree m >= 2 over
    F_p, p odd, by `_frobenius_mod` and ``poly_gcd`` on the prime field:
    x^(p^m) = x mod f, and x^(p^(m/r)) - x is prime to f for each prime
    r | m."""
    spec, m, x = ext_field(p, 1), len(f) - 1, [0, 1]
    checkpoints = {m // r for r in prime_factors(m)}
    power = x
    for j in range(1, m + 1):
        power = _frobenius_mod(spec, power, f)
        if j in checkpoints and len(
                poly_gcd(spec, f, poly_sub(spec, power, x))) > 1:
            return False
    return power == x


def ext_field(p, m):
    """The canonical GF(p^m).  Raises NotPrime / DegreeOutOfRange."""
    if not isinstance(p, int) or not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if not isinstance(m, int) or m < 1:
        raise DegreeOutOfRange(f"extension degree {m} out of range")
    return ExtField(p, m, _lex_least_irreducible(p, m))


def _frobenius_mod(spec, a, f):
    """a^p mod the monic f, for a reduced mod f: each coefficient c goes to
    c^p at p times its exponent, then one reduction by f, with no inverse.
    Primes above 4 log2 p, where that costs more, square and multiply."""
    p, n = spec.p, len(f) - 1
    if p > 4 * p.bit_length():  # p n^2 steps here, ~4 n^2 log p by pow
        return poly_pow_mod(spec, a, p, f)
    out = [0] * (p * len(a) - p + 1)
    out[::p] = map(spec.frobenius, a)
    for top in range(len(out) - 1, n - 1, -1):
        if lead := out[top]:
            for j in range(n):
                k = top - n + j
                out[k] = spec.sub(out[k], spec.mul(lead, f[j]))
    return poly_trim(spec, out[:n])


def distinct_degrees(spec, f):
    """The degrees of the irreducible factors of a monic f over the prime
    field ``spec``, by distinct-degree factorisation (Cantor-Zassenhaus
    1981): for d = 1, 2, ..., gcd(f, t^(p^d) - t) is the product of f's
    distinct irreducible factors of degree d once the smaller degrees are
    divided out, and it is divided out as often as it goes.  Once f has
    degree below 2d, f is irreducible."""
    x = [spec.zero, spec.one]
    degrees, power, d = set(), x, 0
    while len(f) > 1:
        d += 1
        if len(f) - 1 < 2 * d:
            degrees.add(len(f) - 1)
            break
        power = _frobenius_mod(spec, poly_mod(spec, power, f), f)
        g = poly_gcd(spec, f, poly_sub(spec, power, x))
        if len(g) > 1:
            degrees.add(d)
            while len(g) > 1:
                f = poly_divmod(spec, f, g)[0]
                g = poly_gcd(spec, f, g)
    return degrees


def _equal_degree(spec, f, rng):
    """Cantor-Zassenhaus split of a product of distinct monic linear
    factors into those factors."""
    n = len(f) - 1
    if n == 1:
        return [f]
    while True:
        r = poly_trim(spec, [rng.randrange(spec.order) for _ in range(n)])
        if not r:
            continue
        if spec.p == 2:
            # trace map of GF(2^m) onto GF(2): the sum of m squarings
            t = poly_mod(spec, r, f)
            acc = t
            for _ in range(spec.m - 1):
                t = _frobenius_mod(spec, t, f)
                acc = poly_add(spec, acc, t)
            g = poly_gcd(spec, f, acc)
        else:
            w = poly_pow_mod(spec, r, (spec.order - 1) // 2, f)
            g = poly_gcd(spec, f, poly_sub(spec, w, [spec.one]))
        if 1 < len(g) < len(f):
            return (_equal_degree(spec, g, rng)
                    + _equal_degree(spec, poly_divmod(spec, f, g)[0], rng))


def poly_factor(spec, f, seed=0):
    """Factor a nonzero polynomial that splits over ``spec`` into linear
    factors, by root finding.

    While f has positive degree, the roots of its squarefree part s = f /
    gcd(f, f') (s = f when f' = 0) in the field are the linear factors of
    gcd(s, t^q - t); each is divided out of f as often as it goes.  t^q
    mod s and the p = 2 trace map take m `_frobenius_mod` steps (von zur
    Gathen & Shoup 1992); a monic linear f is its own factor.  Returns
    the (monic linear factor, multiplicity) pairs, sorted so repeated runs
    produce identical output for identical seeds.  Raises
    SplitFieldTooSmall when f has an irreducible factor of degree above one.
    """
    rng = Random(seed)
    f = poly_monic(spec, f)
    if len(f) == 2:
        return [(tuple(f), 1)]
    x = [spec.zero, spec.one]
    factors = []
    while len(f) > 1:
        df = poly_deriv(spec, f)
        s = poly_divmod(spec, f, poly_gcd(spec, f, df))[0] if df else f
        xq = poly_mod(spec, x, s)
        for _ in range(spec.m):
            xq = _frobenius_mod(spec, xq, s)
        r = poly_gcd(spec, s, poly_sub(spec, xq, x))
        if len(r) == 1:
            raise SplitFieldTooSmall(
                f"polynomial has no root in GF({spec.p}^{spec.m})")
        for lin in _equal_degree(spec, r, rng):
            mult = 0
            quo, rem = poly_divmod(spec, f, lin)
            while not rem:
                f, mult = quo, mult + 1
                quo, rem = poly_divmod(spec, f, lin)
            factors.append((tuple(lin), mult))
    factors.sort(key=lambda fm: (len(fm[0]), fm[0], fm[1]))
    return factors


# ---------------------------------------------------------------------------
# the blocks over GF(p^l)
# ---------------------------------------------------------------------------


def splitting_degree(G, p):
    """Degree l of GF(p^l), the smallest field that splits the center of kG.

    The roots of a class sum's minimal polynomial on Z(F_pG) are its
    central-character values, and GF(p^a) and GF(p^b) generate
    GF(p^lcm(a, b)), so l is the lcm of the degrees of the F_p-irreducible
    factors of every class sum's minimal polynomial (`distinct_degrees`).
    Krylov rows of the class sum z_i, the unit times powers of sc_int[i]
    mod p, run over F_p.
    """
    fp = ext_field(p, 1)
    cb = center(G, fp)
    ell = 1
    for action in cb.sc_int % p:  # z_i z_j = sum_k action[j, k] z_k
        mu = _min_poly(fp, cb.class_count, _fp_powers(action, p))
        ell = math.lcm(ell, *distinct_degrees(fp, mu))
    return ell


def _fp_powers(action, p):
    """The unit times powers of an F_p matrix acting on rows, endlessly."""
    v = np.zeros(len(action), dtype=np.int64)
    v[0] = 1  # class 0 is the identity's
    while True:
        yield v.tolist()
        v = v @ action % p


@dataclass
class SplitBlock:
    """A primitive central idempotent of kG over GF(p^l) in the class-sum
    basis, its central character, and the sum e_O and size of its Galois
    orbit."""

    coords: tuple
    central_character: tuple
    is_principal: bool
    orbit_sum: tuple
    orbit_size: int


def split_center(G, p, ell=None, seed=0):
    """(field, blocks): the blocks of kG over GF(p^ell), ell =
    `splitting_degree` by default, in the order hh1lab gives them.

    A worklist of orthogonal central idempotents starts from the unit.  For
    an idempotent e taken off it, the minimal polynomial of z_i e on eZ is
    factored for each class sum z_i in turn; its roots are central-character
    values.  Two or more coprime factors split e into idempotents that go
    back on the list and resume the scan at the class that split e; when no
    class splits e it is primitive, and the roots of its linear factors
    are its central character.  Raises SplitFieldTooSmall when a minimal
    polynomial has no root in the field.
    """
    spec = ext_field(p, splitting_degree(G, p) if ell is None else ell)
    cb = center(G, spec)
    c = cb.class_count
    sizes = [spec.from_int(cl.size) for cl in G.conjugacy_classes()]
    work = [(cb.unit_vector(), [])]
    blocks = []
    while work:
        e, lam = work.pop()
        for i in range(len(lam), c):
            zi = tuple(spec.one if j == i else spec.zero for j in range(c))
            w = cb.product(zi, e)
            mu = _min_poly_in_subalgebra(cb, w, e)
            factors = poly_factor(spec, mu, seed=seed)
            if len(factors) > 1:
                work += [(f, lam[:]) for f in
                         _split_idempotent(cb, mu, factors, w, e)]
                break
            (irr, _), = factors
            lam.append(spec.neg(irr[0]))
        else:
            blocks.append(SplitBlock(e, tuple(lam), lam == sizes,
                                     *orbit_class_sum(spec, e)))
    # the package's order: a block's dimension from its orbit sum over F_p
    A = group_algebra(G, p)
    dims = {b.orbit_sum: _block_dimension(A, G, b.orbit_sum, b.orbit_size)
            if G.order <= MATERIALIZE_DIM_CAP else 0 for b in blocks}
    blocks.sort(key=lambda b: (not b.is_principal, dims[b.orbit_sum],
                               b.orbit_sum, b.coords))
    return spec, blocks


def orbit_class_sum(spec, coords):
    """(e_O, |O|): e_O the sum of the Galois orbit O of a block idempotent,
    both in class-sum coordinates, e_O as a tuple of ints in [0, p)."""
    orbit = [coords]
    while (image := tuple(map(spec.frobenius, orbit[-1]))) != coords:
        orbit.append(image)
    e = tuple(functools.reduce(spec.add, vs) for vs in zip(*orbit))
    assert max(e) < spec.p, "orbit sum of a block idempotent is not over F_p"
    return e, len(orbit)
