"""Group algebras over F_p and their blocks.

Builds F_pG and splits its center over F_p into e_O, the sum of the
block idempotents of one Galois orbit O, for each orbit: the fixed points
of z -> z^p on the center are spanned by the e_O (Berlekamp 1967), and
every fixed element's minimal polynomial splits into distinct linear
factors over F_p, so refining idempotents by root finding reaches them.
|O| is read off the Frobenius map on Z e_O, whose residue field is
GF(p^|O|).  Each orbit gives one row of per-block data -- dimension,
defect number, principal flag -- repeated |O| times, which is what a
field splitting every block would show, and GF(p^l), l = lcm |O|, is the
smallest such field.  No tensor construction: kG (x) kH is k[G x H].
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .errors import DimCapExceeded, FieldMismatch, InvariantViolation
from .ffield import (FieldSpec, echelon_insert, field_make, matmul_mod,
                     p_adic_valuation, poly_divmod, poly_ext_gcd,
                     poly_factor, poly_mod, poly_monic, poly_mul)

# caps for materialising dense data; stretch-scale groups stay lazy
MATERIALIZE_DIM_CAP = 512


class GroupTableSC:
    """Lazy structure constants of a group algebra: e_i * e_j = e_{ij}, from
    the multiplication table, built on first use; nothing reads them above
    MATERIALIZE_DIM_CAP elements."""

    def __init__(self, group, spec):
        self._group = group
        self._one = spec.one
        self._table = None

    def table(self):
        if self._table is None:
            self._table = self._group.multiplication_table()
        return self._table

    def __getitem__(self, key):
        i, j = key
        return ((int(self.table()[i, j]), self._one),)


class StructAlgebra:
    """Finite-dimensional associative algebra with a distinguished basis.

    ``sc`` maps a pair (i, j) of basis indices to a tuple of (k, raw
    coefficient) terms of e_i e_j.  It may be a plain dict or a lazy view
    (group algebras at large order).  ``unit`` is the coordinate vector of
    the identity as a tuple of raw field values; None makes it basis
    element 0, as in group algebras, on first read.  ``labels`` names the
    basis; None names it g0, g1, ... as group algebras do, on first read.
    """

    def __init__(self, spec, dim, labels, sc, unit, group=None):
        self.field = spec
        self.dim = dim
        self._labels = labels
        self.sc = sc
        self._unit = unit
        self.group = group  # the source PermGroup for group algebras

    @functools.cached_property
    def unit(self):
        if self._unit is None:
            return self.basis_vector(0)
        return tuple(self._unit)

    @functools.cached_property
    def labels(self):
        if self._labels is None:
            return [f"g{i}" for i in range(self.dim)]
        return list(self._labels)

    def multiply(self, u, v):
        """Product of two coordinate vectors (raw values)."""
        spec = self.field
        out = [spec.zero] * self.dim
        for i, ui in enumerate(u):
            if spec.is_zero(ui):
                continue
            for j, vj in enumerate(v):
                if spec.is_zero(vj):
                    continue
                c = spec.mul(ui, vj)
                for k, ck in self.sc[i, j]:
                    out[k] = spec.add(out[k], spec.mul(c, ck))
        return tuple(out)

    def basis_vector(self, i):
        spec = self.field
        v = [spec.zero] * self.dim
        v[i] = spec.one
        return tuple(v)

    def check_unit(self):
        spec = self.field
        for i in range(self.dim):
            b = self.basis_vector(i)
            if self.multiply(self.unit, b) != b or self.multiply(b, self.unit) != b:
                return False
        return True

    def check_associativity(self):
        """Exhaustive on basis triples."""
        n = self.dim
        for i, j, k in itertools.product(range(n), repeat=3):
            left = self.multiply(self.multiply(self.basis_vector(i),
                                               self.basis_vector(j)),
                                 self.basis_vector(k))
            right = self.multiply(self.basis_vector(i),
                                  self.multiply(self.basis_vector(j),
                                                self.basis_vector(k)))
            if left != right:
                return False
        return True


@dataclass
class CenterBasis:
    """The center of a group algebra in the class-sum basis.

    ``sc_int`` holds integer structure constants: class_sum_i * class_sum_j
    = sum_k sc_int[i,j,k] * class_sum_k.  They are field-independent counts,
    shared by every center of the group (read-only); ``product`` reduces
    them mod p once, on its first call, and keeps the non-zero terms of
    each pair (i, j).
    """

    spec: FieldSpec
    class_count: int
    sc_int: np.ndarray = dc_field(repr=False)

    @functools.cached_property
    def _terms(self):
        # terms[i][j]: the (k, sc_int[i, j, k] mod p) with a non-zero
        # constant, k ascending, the constant as a field element
        spec = self.spec
        c = self.class_count
        reduced = self.sc_int % spec.p
        terms = [[[] for _ in range(c)] for _ in range(c)]
        nonzero = np.nonzero(reduced)
        for (i, j, k), a in zip(np.transpose(nonzero).tolist(),
                                reduced[nonzero].tolist()):
            terms[i][j].append((k, spec.from_int(a)))
        return terms

    def product(self, u, v):
        """Product of two center elements in class-sum coordinates."""
        spec = self.spec
        add, mul, one = spec.add, spec.mul, spec.one
        out = [spec.zero] * self.class_count
        for ui, row in zip(u, self._terms):
            if spec.is_zero(ui):
                continue
            for vj, terms in zip(v, row):
                if not terms or spec.is_zero(vj):
                    continue
                coef = mul(ui, vj)
                for k, a in terms:  # at p = 2 every constant is 1
                    out[k] = add(out[k], coef if a == one else mul(coef, a))
        return tuple(out)

    def unit_vector(self):
        """Coordinates of 1: class 0 is the identity's, {0}."""
        return (self.spec.one,) + (self.spec.zero,) * (self.class_count - 1)


@dataclass
class BlockData:
    """One block of a group algebra, as a member of its Galois orbit O.

    ``idempotent_class_coords`` is e_O, the sum of the primitive central
    idempotents of O, in the class-sum basis (ints in [0, p)); every block
    of O carries the same e_O, and ``orbit_size`` is |O|.  ``dim`` is the
    dimension of one block, None when the ambient algebra is too large to
    materialise the rank computation.
    """

    index: int
    idempotent_class_coords: tuple
    orbit_size: int
    dim: Optional[int]
    defect: int
    is_principal: bool
    spec: FieldSpec
    group: object = dc_field(repr=False, default=None)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def group_algebra(G, p, *, allow_large=False):
    """F_pG.  Structure constants are served lazily from the group's
    multiplication, so large groups do not materialise |G|^2 products.

    ``allow_large`` sets no cap here, since no field grows with the group;
    it stays a keyword because callers, the benchmark among them, pass it.
    """
    spec = field_make(p)
    # element 0 is the identity (BFS enumeration)
    return StructAlgebra(spec, G.order, None, GroupTableSC(G, spec), None,
                         group=G)


def center(G, spec):
    """Center of kG over ``spec`` in the class-sum basis.

    Structure constants are integer counts: for classes C_i, C_j and a
    fixed representative g_k of C_k, the count of pairs (x, y) with
    x in C_i, y in C_j and xy = g_k; binned by iterating one class.  The
    class of y = x^{-1} g_k = (g_k^{-1} x)^{-1} is read off g_k^{-1} x,
    for every x one sweep of `left_products` along the enumeration's
    Cayley tree, and a map from each element to the class of its inverse,
    so no element is sifted past the c representatives' inverses.  The
    counts do not depend on the field: they are made once per group and
    kept on it.  Raises DimCapExceeded when the c^3 int64 counts would
    pass the group's memory cap.
    """
    sc_int = G._class_counts
    if sc_int is None:
        sc_int = G._class_counts = _class_counts(G)
    return CenterBasis(spec, len(sc_int), sc_int)


def _class_counts(G):
    classes = G.conjugacy_classes()
    c = len(classes)
    if 8 * c ** 3 > G.memory_cap:
        raise DimCapExceeded(
            f"center structure constants of {c} classes need {8 * c ** 3} "
            f"bytes, past the memory cap ({G.memory_cap} bytes)")
    class_of = G.class_of_array()
    inv_reps = [G.index_of(cl.representative.inv()) for cl in classes]
    inv_class = class_of[inv_reps][class_of]  # the class of x^-1, per x
    bins = class_of * np.intp(c)  # c * c may pass the int32 class numbers
    sc_int = np.zeros((c, c, c), dtype=np.int64)
    for k, i in enumerate(inv_reps):
        j_arr = inv_class.take(G.left_products(i))
        sc_int[:, :, k] = np.bincount(bins + j_arr,
                                      minlength=c * c).reshape(c, c)
    sc_int.flags.writeable = False
    return sc_int


def _min_poly(spec, c, powers):
    """Minimal polynomial of an element w from ``powers``, its Krylov rows
    w^0, w^1, ... in c coordinates.

    The rows go into an insertion echelon, each carrying a tag column
    c + deg after the c coordinates.  The first row whose coordinate part
    reduces to zero leads with a tag; its tags are the coefficients of the
    first linear dependence among the powers.
    """
    pivots, rowlist = {}, []
    for deg, current in enumerate(powers):
        row = {i: v for i, v in enumerate(current) if not spec.is_zero(v)}
        row[c + deg] = spec.one
        if echelon_insert(row, pivots, rowlist, spec) >= c:
            tags = rowlist[-1]
            return poly_monic(spec, [tags.get(c + j, spec.zero)
                                     for j in range(deg + 1)])


def _min_poly_in_subalgebra(cb, w, unit):
    """Minimal polynomial of w inside the unital subalgebra unit*Z."""
    def powers():
        current = tuple(unit)
        while True:
            yield current
            current = cb.product(current, w)
    return _min_poly(cb.spec, cb.class_count, powers())


def _eval_poly_at(cb, poly, w, unit):
    """Evaluate a polynomial at a center element, with w^0 = unit."""
    spec = cb.spec
    acc = tuple([spec.zero] * cb.class_count)
    for coef in reversed(poly):
        acc = cb.product(acc, w)
        if not spec.is_zero(coef):
            acc = tuple(spec.add(a, spec.mul(coef, u))
                        for a, u in zip(acc, unit))
    return acc


def _products(a, b, sc, p):
    """Row-wise products a[r] b[r] of center elements in class-sum
    coordinates, ``sc`` the structure constants mod p."""
    c = len(sc)
    t = matmul_mod(a, sc.reshape(c, c * c), p).reshape(len(a), c, c)
    return matmul_mod(b[:, None, :], t, p)[:, 0]


def _frobenius_matrix(sc, p):
    """The matrix of z -> z^p on the center: row i is the p-th power of
    the i-th class sum, by square and multiply on all of them at once."""
    c = len(sc)
    power = np.zeros((c, c), dtype=np.int64)
    power[:, 0] = 1  # class 0 is the identity's
    base = np.eye(c, dtype=np.int64)
    e = p
    while True:
        if e & 1:
            power = _products(power, base, sc, p)
        e >>= 1
        if not e:
            return power
        base = _products(base, base, sc, p)


def _orbit_size(e, sc, frob_k, p):
    """|O| for the orbit sum e: Z e is local with residue field GF(p^|O|),
    and ``frob_k``, z -> z^(p^k) with p^k at least dim Z, kills its
    radical and is one to one on the rest, so its rank on Z e is |O|."""
    from .ffield import np_rref_mod_p
    c = len(sc)
    ze = _products(np.eye(c, dtype=np.int64),
                   np.tile(np.array(e, dtype=np.int64), (c, 1)), sc, p)
    return len(np_rref_mod_p(matmul_mod(ze, frob_k, p), p)[1])


def block_decompose(A, G, p, seed=0):
    """The blocks of kG, each a member of its Galois orbit over F_p.

    z -> z^p is F_p-linear on the center Z, and its fixed space is spanned
    by the orbit sums e_O.  A worklist of orthogonal idempotents of that
    fixed algebra starts from the unit.  For an idempotent e taken off it,
    the minimal polynomial of f_i e on eZ is factored for each fixed
    basis element f_i in turn; it splits into distinct linear factors over
    F_p, so factoring is root finding (`poly_factor`, PRNG seeded
    deterministically).  Two or more factors split e into idempotents on
    each of which f_i e is a scalar; they go back on the list and resume
    the scan past i.  When no f_i splits e, e is an orbit sum.  The
    principal orbit is the one of augmentation 1; the defect is read off
    the support of e_O (`_defect`), |O| by `_orbit_size`, and a block's
    dimension is rank(e_O kG) / |O| up to MATERIALIZE_DIM_CAP elements,
    None above.  Each orbit's row is repeated |O| times, and the rows are
    ordered: principal first, then by dimension, then by e_O.
    """
    from .ffield import np_kernel_mod_p
    spec = A.field
    if spec.p != p:
        raise FieldMismatch("algebra characteristic differs from p")
    cb = center(G, spec)
    c = cb.class_count
    sc = cb.sc_int % p
    unit = cb.unit_vector()
    frob = _frobenius_matrix(sc, p)
    fixed = [tuple(v) for v in np_kernel_mod_p(
        (frob - np.eye(c, dtype=np.int64)).T, p).tolist()]
    work = [(unit, 0)]
    orbit_sums = []
    while work:
        e, start = work.pop()
        for i in range(start, len(fixed)):
            w = cb.product(fixed[i], e)
            mu = _min_poly_in_subalgebra(cb, w, e)
            factors = poly_factor(spec, mu, seed=seed)
            if len(factors) > 1:
                work += [(f, i + 1) for f in
                         _split_idempotent(cb, mu, factors, w, e)]
                break
        else:
            orbit_sums.append(e)
    # sanity: as many orbits as fixed dimensions, orthogonal, complete
    if len(orbit_sums) != len(fixed):
        raise InvariantViolation(
            f"{len(orbit_sums)} orbit sums for {len(fixed)} fixed dimensions")
    total = tuple(map(sum, zip(*orbit_sums)))
    if tuple(v % p for v in total) != unit:
        raise InvariantViolation("idempotents do not sum to 1")
    for i, a in enumerate(orbit_sums):
        for b in orbit_sums[i + 1:]:
            if any(cb.product(a, b)):
                raise InvariantViolation("idempotents not orthogonal")
    classes = G.conjugacy_classes()
    materialize = G.order <= MATERIALIZE_DIM_CAP
    frob_k, q = frob, p  # z -> z^q, q = p^k at least c
    while q < c:
        frob_k, q = matmul_mod(frob_k, frob, p), q * p
    orbits = []  # (principal, dim, e_O, |O|)
    for e in orbit_sums:
        size = _orbit_size(e, sc, frob_k, p)
        orbits.append((
            sum(v * cl.size for v, cl in zip(e, classes)) % p == 1,
            _block_dimension(A, G, e, size) if materialize else None,
            e, size))
    if materialize and sum(o[1] * o[3] for o in orbits) != G.order:
        raise InvariantViolation("block dimensions do not sum to |G|")
    orbits.sort(key=lambda o: (not o[0], o[1] or 0, o[2]))
    blocks = []
    for principal, dim, e, size in orbits:
        defect = _defect(classes, e, p)
        blocks += [BlockData(
            index=len(blocks) + j, idempotent_class_coords=e,
            orbit_size=size, dim=dim, defect=defect, is_principal=principal,
            spec=spec, group=G) for j in range(size)]
    return blocks


def field_degree(blocks):
    """l = lcm |O| over the orbits: GF(p^l) is the smallest field over
    which every block of kG splits."""
    return math.lcm(*(b.orbit_size for b in blocks))


def _split_idempotent(cb, mu, factors, w, e):
    """The idempotents of e*Z cut out by the coprime primary factors of mu,
    the minimal polynomial of w on e*Z."""
    spec = cb.spec
    out = []
    for irr, mult in factors:
        irr_pow = [spec.one]
        for _ in range(mult):
            irr_pow = poly_mul(spec, irr_pow, list(irr))
        q, rem = poly_divmod(spec, mu, irr_pow)
        if rem:
            raise InvariantViolation("factor power does not divide")
        g, u, _ = poly_ext_gcd(spec, q, irr_pow)
        if len(g) != 1:
            raise InvariantViolation("cofactors not coprime")
        h = poly_mod(spec, poly_mul(spec, u, q), mu)
        f = _eval_poly_at(cb, h, w, e)
        if cb.product(f, f) != f:
            raise InvariantViolation("refinement not idempotent")
        out.append(f)
    return out


def _defect(classes, coords, p):
    """The largest nu_p(|C_G(x)|) over the classes carrying a nonzero
    coefficient of an orbit sum e_O."""
    return max(p_adic_valuation(cl.centralizer_order, p)
               for cl, v in zip(classes, coords) if v)


def _block_dimension(A, G, e, size):
    """dim kGb = rank(e_O kG) / |O| over F_p, by a rank-only elimination
    of the rows e_O u, read off the support of e_O: row u holds the
    coefficient of g at gu."""
    from .ffield import rank_nullspace_raw
    coef = np.array(e)[G.class_of_array()]
    support = np.flatnonzero(coef)
    values = coef[support].tolist()
    rows = [dict(zip(cols, values))
            for cols in A.sc.table()[support].T.tolist()]
    rank, _ = rank_nullspace_raw(rows, G.order, A.field, want_basis=False)
    if rank % size:
        raise InvariantViolation(
            f"orbit of {size} blocks does not divide its rank {rank}")
    return rank // size


def block_algebra(A, b):
    """The algebra F_pG e_O on a reduced basis of the ideal A*e_O, for the
    orbit sum e_O of the block b: extended to a field that splits the
    blocks, it becomes the product of the |O| blocks of O.

    Basis rows are the reduced echelon form of {e_i e_O}; structure
    constants are recomputed on that basis and the unit is e_O itself.
    """
    from .ffield import echelonize
    spec = A.field
    G = b.group
    n = A.dim
    if n > MATERIALIZE_DIM_CAP:
        raise DimCapExceeded("block algebra of a stretch-scale group")
    bvec = tuple(map(b.idempotent_class_coords.__getitem__,
                     G.class_of_array().tolist()))
    raw_rows = []
    for i in range(n):
        prod = A.multiply(A.basis_vector(i), bvec)
        raw_rows.append({c: v for c, v in enumerate(prod)
                         if not spec.is_zero(v)})
    pivots, rowlist = echelonize(raw_rows, n, spec)
    order = sorted(pivots)
    basis = []
    for col in order:
        row = rowlist[pivots[col]]
        basis.append(tuple(row.get(cc, spec.zero) for cc in range(n)))
    d = len(basis)
    if b.dim is not None and d != b.dim * b.orbit_size:
        raise InvariantViolation("ideal basis does not match block dimension")
    pivot_cols = order

    def express(vec):
        # RREF basis: coefficients are the pivot coordinates
        coeffs = tuple(vec[pc] for pc in pivot_cols)
        # verify exact reconstruction (catches vectors outside the ideal)
        recon = [spec.zero] * n
        for coef, brow in zip(coeffs, basis):
            if spec.is_zero(coef):
                continue
            for idx in range(n):
                recon[idx] = spec.add(recon[idx], spec.mul(coef, brow[idx]))
        if tuple(recon) != tuple(vec):
            raise InvariantViolation("vector outside the block ideal")
        return coeffs

    sc = {}
    for i in range(d):
        for j in range(d):
            prod = A.multiply(basis[i], basis[j])
            coeffs = express(prod)
            sc[i, j] = tuple((k, v) for k, v in enumerate(coeffs)
                             if not spec.is_zero(v))
    unit = express(bvec)
    labels = [f"b{b.index}_{i}" for i in range(d)]
    return StructAlgebra(spec, d, labels, sc, unit)
