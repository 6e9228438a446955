"""Exact arithmetic in GF(p^m) and rank/nullspace kernels.

Every field element is an int in ``[0, q)`` whose base-p digits are its
coefficients over the prime field, constant term first: ``a_0 + a_1 p +
... + a_{m-1} p^{m-1}`` stands for ``a_0 + a_1 t + ... + a_{m-1} t^{m-1}``
modulo the field's irreducible ``t``-polynomial.  For p = 2 the digits are
the bits.  A `FieldSpec` chooses its arithmetic once, when it is built,
and binds it as plain callables: prime fields reduce mod p; GF(2^m)
multiplies carry-less on the bits; odd extension fields of order at most
``LOG_TABLE_MAX_ORDER`` read exp/log/Zech tables built once per modulus;
larger odd extension fields multiply digit vectors as polynomials.  Each
kind also binds ``frobenius``, a -> a^p: the identity on a prime field,
one squaring in GF(2^m), one table lookup on a log-table field.

The public surface is `FieldSpec` (raw arithmetic), `field_make`, the
``poly_*`` helpers, and elimination: `echelonize` / `rank_nullspace_raw` on
sparse rows (dicts col -> raw) run every prime field through one insertion
echelon on rows packed into ints, a few bits per column (Boothby-Bradshaw
2009), and GF(p^m), m > 1, through the same insertion on dict rows,
`echelon_insert`, whose one row operation calls `FieldSpec`.  A rank-only call
(``want_basis=False``) eliminates the short side, the transpose when the
rows outnumber the columns, and skips back-reduction.  `np_rref_mod_p` /
`np_kernel_mod_p` are dense front ends over a prime field, by way of
`sparse_rows`.  Every rank and nullspace in the package goes through this
one echelon.  `poly_factor` finds roots: it factors only polynomials that
split into linear factors over the field, as block splitting's do over a
splitting field; `distinct_degrees` reads the degrees of a polynomial's
irreducible factors over a prime field, which choose that field.
Everything here is immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest
from random import Random

import numpy as np

from .errors import (DegreeOutOfRange, DivisionByZero, NotPrime,
                     SplitFieldTooSmall)

MAX_EXTENSION_DEGREE = 16
LOG_TABLE_MAX_ORDER = 1 << 16


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n):
    """Ascending list of the distinct prime divisors of n."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def p_adic_valuation(n, p):
    v = 0
    while n % p == 0 and n > 0:
        v += 1
        n //= p
    return v


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
class FieldSpec:
    """A finite field GF(p^m) with a fixed irreducible modulus.

    ``modulus`` is the monic degree-m polynomial as a coefficient tuple,
    constant term first.  `field_make` always picks the same modulus for
    the same (p, m); a FieldSpec built directly uses the one it is given.

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
    spec, m, x = field_make(p, 1), len(f) - 1, [0, 1]
    checkpoints = {m // r for r in prime_factors(m)}
    power = x
    for j in range(1, m + 1):
        power = _frobenius_mod(spec, power, f)
        if j in checkpoints and len(
                poly_gcd(spec, f, poly_sub(spec, power, x))) > 1:
            return False
    return power == x


def field_make(p, m, *, _allow_large_degree=False):
    """Construct the canonical GF(p^m).

    Raises NotPrime / DegreeOutOfRange.  Degrees above
    ``MAX_EXTENSION_DEGREE`` are refused unless the caller explicitly opts
    in (the large-run path does, for splitting fields of big groups).
    """
    if not isinstance(p, int) or not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if not isinstance(m, int) or m < 1:
        raise DegreeOutOfRange(f"extension degree {m} out of range")
    if m > MAX_EXTENSION_DEGREE and not _allow_large_degree:
        raise DegreeOutOfRange(
            f"extension degree {m} exceeds {MAX_EXTENSION_DEGREE}; "
            "pass --allow-large to override")
    return FieldSpec(p, m, _lex_least_irreducible(p, m))


# ---------------------------------------------------------------------------
# Polynomials over an arbitrary FieldSpec (coefficient lists of raw values,
# ascending powers).  Used for minimal polynomials and their roots.
# ---------------------------------------------------------------------------


def poly_trim(spec, c):
    n = len(c)
    while n and spec.is_zero(c[n - 1]):
        n -= 1
    return list(c[:n])


def poly_add(spec, a, b):
    out = list(a) + [spec.zero] * (len(b) - len(a)) if len(a) < len(b) else list(a)
    for i, bi in enumerate(b):
        out[i] = spec.add(out[i], bi)
    return poly_trim(spec, out)


def poly_sub(spec, a, b):
    return poly_add(spec, a, [spec.neg(x) for x in b])


def poly_scale(spec, a, c):
    return poly_trim(spec, [spec.mul(x, c) for x in a])


def poly_mul(spec, a, b):
    if not a or not b:
        return []
    out = [spec.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not spec.is_zero(ai):
            for j, bj in enumerate(b):
                out[i + j] = spec.add(out[i + j], spec.mul(ai, bj))
    return poly_trim(spec, out)


def poly_divmod(spec, a, b):
    b = poly_trim(spec, b)
    if not b:
        raise DivisionByZero("polynomial division by zero")
    a = list(a)
    db = len(b) - 1
    binv = spec.inv(b[-1])
    q = [spec.zero] * max(0, len(a) - db)
    while len(poly_trim(spec, a)) - 1 >= db:
        a = poly_trim(spec, a)
        shift = len(a) - 1 - db
        coef = spec.mul(a[-1], binv)
        q[shift] = coef
        for i, bi in enumerate(b):
            a[shift + i] = spec.sub(a[shift + i], spec.mul(coef, bi))
    return poly_trim(spec, q), poly_trim(spec, a)


def poly_mod(spec, a, b):
    return poly_divmod(spec, a, b)[1]


def poly_monic(spec, a):
    a = poly_trim(spec, a)
    if not a:
        return a
    return poly_scale(spec, a, spec.inv(a[-1]))


def poly_gcd(spec, a, b):
    a, b = poly_trim(spec, a), poly_trim(spec, b)
    while b:
        a, b = b, poly_mod(spec, a, b)
    return poly_monic(spec, a)


def poly_ext_gcd(spec, a, b):
    """Extended gcd: returns (g, u, v) with u*a + v*b = g, g monic."""
    r0, r1 = poly_trim(spec, a), poly_trim(spec, b)
    u0, u1 = [spec.one], []
    v0, v1 = [], [spec.one]
    while r1:
        q, r = poly_divmod(spec, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, poly_sub(spec, u0, poly_mul(spec, q, u1))
        v0, v1 = v1, poly_sub(spec, v0, poly_mul(spec, q, v1))
    if r0:
        c = spec.inv(r0[-1])
        r0 = poly_scale(spec, r0, c)
        u0 = poly_scale(spec, u0, c)
        v0 = poly_scale(spec, v0, c)
    return r0, u0, v0


def poly_pow_mod(spec, base, e, mod):
    result = [spec.one]
    base = poly_mod(spec, base, mod)
    while e:
        if e & 1:
            result = poly_mod(spec, poly_mul(spec, result, base), mod)
        base = poly_mod(spec, poly_mul(spec, base, base), mod)
        e >>= 1
    return result


def poly_deriv(spec, a):
    out = []
    for i in range(1, len(a)):
        c = spec.from_int(i)
        out.append(spec.mul(a[i], c))
    return poly_trim(spec, out)


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
# Sparse rank / nullspace
# ---------------------------------------------------------------------------


def _subtract(row, coef, prow, spec):
    """row -= coef * prow in place over ``spec``, dropping zeros; a zero
    sum needs a nonzero summand already in row."""
    negc, add, mul, get = spec.neg(coef), spec.add, spec.mul, row.get
    for c, v in prow.items():
        if nv := add(get(c, 0), mul(negc, v)):
            row[c] = nv
        else:
            del row[c]


def echelon_insert(row, pivots, rowlist, spec):
    """Insert one sparse row into an insertion echelon, in place.

    ``row`` is a dict col->raw without zeros; it is consumed.  It is reduced
    against the pivot rows so far; a nonzero remainder is scaled to a
    leading one and recorded as a new pivot row.  Returns the new pivot
    column, or None when the row reduces to zero.
    """
    while row:
        lead = min(row)
        if lead not in pivots:
            inv, mul = spec.inv(row[lead]), spec.mul
            pivots[lead] = len(rowlist)
            rowlist.append({c: mul(v, inv) for c, v in row.items()})
            return lead
        _subtract(row, row[lead], rowlist[pivots[lead]], spec)
    return None


def _echelon_generic(rows_iter, spec, reduced):
    """Insertion echelon over any FieldSpec, by `echelon_insert`.

    Returns (pivots dict col->index, rowlist) where each row is a dict
    col->raw with leading coefficient one; with ``reduced`` the rows are
    back-reduced, so they are the unique RREF.
    """
    pivots = {}
    rowlist = []
    for row in rows_iter:
        echelon_insert({c: v for c, v in row.items() if v}, pivots, rowlist,
                       spec)
    if reduced:
        # rows of larger lead are reduced first, so they hold no pivot
        # column but their own: the pivot columns of prow are fixed up front
        for lead in sorted(pivots, reverse=True):
            prow = rowlist[pivots[lead]]
            for lead2 in sorted(c for c in prow if c > lead and c in pivots):
                _subtract(prow, prow[lead2], rowlist[pivots[lead2]], spec)
    return pivots, rowlist


def _echelon_packed(rows_iter, p, reduced):
    """Insertion echelon over F_p on rows packed into ints, column c in bits
    [w c, w c + w).  Over GF(2), w = 1 and a row operation is XOR.  Over odd
    p, w = bitlen(p - 1) + 1: a sum of two rows has each field below 2p <=
    2^w, so nothing carries, and bit w-1 of field + 2^(w-1) - p marks where
    p comes off.  Pivot rows are monic; the multiple k * row that a row
    operation needs is made by doubling and not kept, so memory holds the
    pivot rows alone.  Returns (pivots, packed rows), or with ``reduced``
    (pivots, RREF rows as dicts col->raw, columns ascending), as
    `_echelon_generic` does.
    """
    w = 1 if p == 2 else (p - 1).bit_length() + 1
    fmask = (1 << w) - 1
    pivots = {}
    rowlist = []
    ones = bias = span = 0  # 1 and 2^(w-1) - p in each field below bit span

    def add(a, b):
        if p == 2:
            return a ^ b
        s = a + b
        return s - (((s + bias) >> (w - 1)) & ones) * p

    def times(b, k):  # k * b for 0 < k < p, by doubling
        if k == 1:
            return b
        half = times(add(b, b), k >> 1)
        return add(half, b) if k & 1 else half

    def fields(x):  # the nonzero (column, value) of x, columns ascending
        while x:
            c = ((x & -x).bit_length() - 1) // w
            v = (x >> (w * c)) & fmask
            x ^= v << (w * c)
            yield c, v

    for row in rows_iter:
        packed = 0
        for c, v in row.items():
            packed |= v << (w * c)
        if packed >> span:
            span = -(-packed.bit_length() // w) * w
            ones = ((1 << span) - 1) // fmask
            bias = ((1 << (w - 1)) - p) * ones
        while packed:
            lead = ((packed & -packed).bit_length() - 1) // w
            v = (packed >> (w * lead)) & fmask
            if lead not in pivots:
                pivots[lead] = len(rowlist)
                rowlist.append(times(packed, pow(v, p - 2, p)))
                break
            packed = add(packed, times(rowlist[pivots[lead]], p - v))
    if not reduced:
        return pivots, rowlist
    mask = 0
    for lead in pivots:
        mask |= fmask << (w * lead)
    # as in _echelon_generic, the pivot fields of a row beside its lead are
    # fixed before it is reduced
    for lead in sorted(pivots, reverse=True):
        idx = pivots[lead]
        row = rowlist[idx]
        for c, v in fields((row & mask) ^ (1 << (w * lead))):
            row = add(row, times(rowlist[pivots[c]], p - v))
        rowlist[idx] = row
    return pivots, [dict(fields(row)) for row in rowlist]


def _echelon(rows, spec, reduced):
    """The one choice of row shape: packed ints over a prime field
    (`_echelon_packed`), dicts over GF(p^m), m > 1 (`_echelon_generic`)."""
    if spec.m == 1:
        return _echelon_packed(rows, spec.p, reduced)
    return _echelon_generic(rows, spec, reduced)


def echelonize(rows, ncols, spec):
    """Reduced echelon form of a list of sparse raw rows (dicts col->raw).

    Returns (pivots dict col->rowindex, rows list-of-dicts).  The result is
    the canonical RREF of the row space, independent of input order.
    """
    return _echelon(rows, spec, True)


def kernel_from_echelon(pivots, rowlist, ncols, spec):
    """Canonical nullspace basis (list of raw coordinate lists) from an RREF.

    The free-column kernel vectors are re-echelonised, so the result is the
    unique reduced echelon basis of the nullspace itself.
    """
    lead_of = list(pivots)  # pivots lists its leads by row index
    raw_rows = [{fc: spec.one, **{lead_of[i]: spec.neg(v)
                                  for i, v in col.items()}}
                for fc, col in enumerate(transpose(rowlist, ncols))
                if fc not in pivots]
    kpiv, krows = echelonize(raw_rows, ncols, spec)
    basis = []
    for lead in sorted(kpiv):
        row = krows[kpiv[lead]]
        basis.append([row.get(c, spec.zero) for c in range(ncols)])
    return basis


def transpose(rows, ncols):
    """The columns of a sparse raw system as sparse rows (dicts row->raw)."""
    cols = [{} for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c, v in row.items():
            cols[c][r] = v
    return cols


def rank_nullspace_raw(rows, ncols, spec, *, want_basis=True):
    """Rank and canonical nullspace of a sparse raw system.  A rank-only
    call eliminates the short side, as rank M = rank M^T, and skips
    back-reduction, which keeps the pivots."""
    if not want_basis:
        rows = list(rows)
        if len(rows) > ncols:
            rows = transpose(rows, ncols)
        return len(_echelon(rows, spec, False)[0]), None
    pivots, rowlist = echelonize(rows, ncols, spec)
    return len(pivots), kernel_from_echelon(pivots, rowlist, ncols, spec)


# ---------------------------------------------------------------------------
# dense front ends of the echelon (int arrays over a prime field)
# ---------------------------------------------------------------------------


def sparse_rows(mat):
    """The rows of a 2-d array of raw field values as sparse dicts
    col -> raw, zeros dropped."""
    r, c = np.nonzero(mat)
    vals = mat[r, c].tolist()
    cols = c.tolist()
    # np.nonzero runs row-major, so each row's columns come out ascending
    ends = np.cumsum(np.bincount(r, minlength=len(mat))).tolist()
    return [dict(zip(cols[a:b], vals[a:b]))
            for a, b in zip([0] + ends, ends)]


def np_rref_mod_p(mat, p):
    """Reduced row echelon form of an int array mod p, by `echelonize`.

    Returns (rref, pivot_cols): an int64 array of mat's shape with the RREF
    rows on top and zero rows below, and the ascending pivot columns.
    Input is not modified.
    """
    a = np.asarray(mat, dtype=np.int64) % p
    pivots, rowlist = echelonize(sparse_rows(a), a.shape[1], field_make(p, 1))
    cols = sorted(pivots)
    rref = np.zeros_like(a)
    for r, lead in enumerate(cols):
        row = rowlist[pivots[lead]]
        rref[r, list(row)] = list(row.values())
    return rref, cols


def np_kernel_mod_p(mat, p):
    """Canonical kernel basis of an int array over F_p: the rows of the
    returned int64 array are the RREF of the nullspace."""
    a = np.asarray(mat, dtype=np.int64) % p
    _, basis = rank_nullspace_raw(sparse_rows(a), a.shape[1], field_make(p, 1))
    return np.array(basis, dtype=np.int64).reshape(len(basis), a.shape[1])
