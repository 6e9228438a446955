"""Exact arithmetic over a prime field F_p and rank/nullspace kernels.

Every field element is an int in ``[0, p)``.  A `FieldSpec` binds its
arithmetic once, when it is built, as plain callables that reduce mod p.
Blocks of group algebras are split over F_p itself, as sums over Galois
orbits (`groupalgebra`), so no extension field is ever built: `field_make`
refuses every degree but one.

The public surface is `FieldSpec` (raw arithmetic), `field_make`, the
``poly_*`` helpers, and elimination: `echelonize` / `rank_nullspace_raw` on
sparse rows (dicts col -> raw) run through one insertion echelon on rows
packed into ints (Boothby-Bradshaw 2009): one bit per column over GF(2),
two bit planes over GF(3), a field of a few bits per column above.  A
rank-only call (``want_basis=False``) eliminates the short side, the
transpose when the rows outnumber the columns, and skips back-reduction.
`echelon_insert` is the same insertion on one dict row, for callers that
grow an echelon a row at a time.  `np_rref_mod_p` / `np_kernel_mod_p` are
dense front ends by way of `sparse_rows`, and `matmul_mod` is an exact
product of residue arrays.  Every rank and nullspace in the package goes
through this one echelon.  `poly_factor` finds roots: it factors only
polynomials that split into linear factors over F_p, as the minimal
polynomials of block splitting's Galois-fixed elements do.  Everything
here is immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from random import Random

import numpy as np

from .errors import (DegreeOutOfRange, DivisionByZero, NotPrime,
                     SplitFieldTooSmall)



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




@dataclass(frozen=True)
class FieldSpec:
    """The prime field F_p.

    Construction binds ``add``, ``neg``, ``mul`` and ``inv`` as instance
    attributes, so a call reads nothing but p.  ``inv(0)`` raises
    DivisionByZero.  ``m``, the degree over F_p, is always 1.
    """

    p: int
    m = 1

    def __post_init__(self):
        p = self.p

        def inv(a):
            if not a:
                raise DivisionByZero("inverse of zero")
            return pow(a, p - 2, p)

        for name, op in (("add", lambda a, b: (a + b) % p),
                         ("neg", lambda a: -a % p),
                         ("mul", lambda a, b: a * b % p), ("inv", inv)):
            object.__setattr__(self, name, op)

    @property
    def order(self):
        return self.p

    # -- raw constants ------------------------------------------------------

    zero = 0
    one = 1

    def from_int(self, n):
        """Embed an integer."""
        return n % self.p

    def is_zero(self, a):
        return a == 0

    # -- raw arithmetic beyond the bound operations -------------------------

    def sub(self, a, b):
        return self.add(a, self.neg(b))


def field_make(p, m=1):
    """F_p, the only field the package computes over.

    Raises NotPrime, and DegreeOutOfRange for any degree m other than 1.
    Each prime is checked once: its FieldSpec is kept.
    """
    if not isinstance(p, int):
        raise NotPrime(f"{p} is not prime")
    spec = _prime_field(p)
    if m != 1:
        raise DegreeOutOfRange(
            f"extension degree {m}: only prime fields are supported")
    return spec


@lru_cache(maxsize=None, typed=True)
def _prime_field(p):
    # typed: an int subclass equal to a cached prime is checked on its own
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return FieldSpec(p)


# ---------------------------------------------------------------------------
# Polynomials over a field (coefficient lists of raw values, ascending
# powers), through the field's bound operations alone.  Used for minimal
# polynomials and their roots.
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
    """a^p mod the monic f, for a reduced mod f: each coefficient stays
    (c^p = c over F_p) at p times its exponent, then one reduction by f,
    with no inverse.  Primes above 4 log2 p, where that costs more, square
    and multiply."""
    p, n = spec.p, len(f) - 1
    if p > 4 * p.bit_length():  # p n^2 steps here, ~4 n^2 log p by pow
        return poly_pow_mod(spec, a, p, f)
    out = [0] * (p * len(a) - p + 1)
    out[::p] = a
    for top in range(len(out) - 1, n - 1, -1):
        if lead := out[top]:
            for j in range(n):
                k = top - n + j
                out[k] = spec.sub(out[k], spec.mul(lead, f[j]))
    return poly_trim(spec, out[:n])


def _equal_degree(spec, f, rng):
    """Cantor-Zassenhaus split of a product of distinct monic linear
    factors into those factors.  Over F_2, f divides t(t + 1), and a random
    r of degree below 2 has a proper gcd with it."""
    n = len(f) - 1
    if n == 1:
        return [f]
    while True:
        r = poly_trim(spec, [rng.randrange(spec.p) for _ in range(n)])
        if not r:
            continue
        if spec.p == 2:
            g = poly_gcd(spec, f, r)
        else:
            w = poly_pow_mod(spec, r, (spec.p - 1) // 2, f)
            g = poly_gcd(spec, f, poly_sub(spec, w, [spec.one]))
        if 1 < len(g) < len(f):
            return (_equal_degree(spec, g, rng)
                    + _equal_degree(spec, poly_divmod(spec, f, g)[0], rng))


def poly_factor(spec, f, seed=0):
    """Factor a nonzero polynomial that splits over F_p into linear
    factors, by root finding.

    While f has positive degree, the roots of its squarefree part s = f /
    gcd(f, f') (s = f when f' = 0) are the linear factors of gcd(s, t^p -
    t); each is divided out of f as often as it goes.  t^p mod s is one
    `_frobenius_mod` step; a monic linear f is its own factor.  Returns the
    (monic linear factor, multiplicity) pairs, sorted so repeated runs
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
        xq = _frobenius_mod(spec, poly_mod(spec, x, s), s)
        r = poly_gcd(spec, s, poly_sub(spec, xq, x))
        if len(r) == 1:
            raise SplitFieldTooSmall(f"polynomial has no root in F_{spec.p}")
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


def _bits(x):
    """The set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _echelon_planes(rows_iter, reduced):
    """`_echelon_packed` over GF(3), each row a pair of ints (P, N): bit c
    of P is set where the entry is 1, bit c of N where it is 2, neither
    for 0.  With t = xp | yn, x + y is (t ^ ((yp | yn) & ~xn),
    t ^ ((xp | xn) & ~yp)), each a & ~b written (a | b) ^ b so that no
    int goes negative; x - y is x + (yn, yp), and 2x swaps the planes.
    Pivot rows are monic, so reducing a lead of 1 subtracts the pivot row
    and a lead of 2 adds it, one plane sum a step."""
    pivots = {}
    rowlist = []
    for row in rows_iter:
        xp = xn = 0
        for c, v in row.items():
            if v == 1:
                xp |= 1 << c
            elif v == 2:
                xn |= 1 << c
        while m := xp | xn:
            low = m & -m
            idx = pivots.get(lead := low.bit_length() - 1)
            if idx is None:
                pivots[lead] = len(rowlist)
                # 2 is its own inverse: scaling by it swaps the planes
                rowlist.append((xp, xn) if xp & low else (xn, xp))
                break
            yp, yn = rowlist[idx]
            if xp & low:
                yp, yn = yn, yp
            t = xp | yn
            xp, xn = t ^ ((yp | yn | xn) ^ xn), t ^ ((m | yp) ^ yp)
    if not reduced:
        return pivots, rowlist
    mask = 0
    for lead in pivots:
        mask |= 1 << lead
    # as in `_echelon_packed`, rows of larger lead are reduced first
    for lead in sorted(pivots, reverse=True):
        idx = pivots[lead]
        xp, xn = rowlist[idx]
        for c in _bits(((xp | xn) & mask) ^ (1 << lead)):
            yp, yn = rowlist[pivots[c]]
            if xp >> c & 1:
                yp, yn = yn, yp
            t = xp | yn
            xp, xn = t ^ ((yp | yn | xn) ^ xn), t ^ ((xp | xn | yp) ^ yp)
        rowlist[idx] = (xp, xn)
    return pivots, [{c: 1 if xp >> c & 1 else 2 for c in _bits(xp | xn)}
                    for xp, xn in rowlist]


def _echelon_packed(rows_iter, p, reduced):
    """Insertion echelon over F_p on rows packed into ints, in one of three
    encodings.  Over GF(2) column c is bit c and a row operation is XOR.
    Over GF(3) a row is two ints, bit planes of its 1s and its 2s, and a
    row operation is a few bitwise ops on them (`_echelon_planes`).  Over
    p >= 5 column c is bits [w c, w c + w), w = bitlen(p - 1) + 1: a sum
    of two rows has each field below 2p <= 2^w, so nothing carries, and
    bit w-1 of field + 2^(w-1) - p marks where p comes off, and the
    multiple k * row that a row operation needs is made by doubling and not
    kept.  Pivot rows are monic, and memory holds them alone: 1, 2 and w
    bits a column.  Returns (pivots dict col->index, packed rows), or
    with ``reduced`` (pivots, RREF rows as dicts col->raw, columns
    ascending): every row has leading coefficient one, and back-reduction
    makes the rows the unique RREF.
    """
    if p == 3:
        return _echelon_planes(rows_iter, reduced)
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
    # rows of larger lead are reduced first, so they hold no pivot column
    # but their own: the pivot fields of a row beside its lead are fixed
    # before it is reduced
    for lead in sorted(pivots, reverse=True):
        idx = pivots[lead]
        row = rowlist[idx]
        for c, v in fields((row & mask) ^ (1 << (w * lead))):
            row = add(row, times(rowlist[pivots[c]], p - v))
        rowlist[idx] = row
    return pivots, [dict(fields(row)) for row in rowlist]


def echelonize(rows, ncols, spec):
    """Reduced echelon form of a list of sparse raw rows (dicts col->raw).

    Returns (pivots dict col->rowindex, rows list-of-dicts).  The result is
    the canonical RREF of the row space, independent of input order.
    """
    return _echelon_packed(rows, spec.p, True)


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
        return len(_echelon_packed(rows, spec.p, False)[0]), None
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


def matmul_mod(a, b, p):
    """a @ b mod p for int arrays with entries in [0, p), stacks of
    matrices included.  The sums stay below k (p-1)^2, k the inner
    dimension: below 2^53 float64 is exact, by einsum, as matmul's threaded
    BLAS spins its workers after each call; above, Python ints."""
    if a.shape[-1] * (p - 1) ** 2 < 2 ** 53:
        prod = np.einsum("...ij,...jk->...ik", a.astype(np.float64),
                         b.astype(np.float64))
    else:
        prod = a.astype(object) @ b.astype(object)
    return (prod % p).astype(np.int64)
