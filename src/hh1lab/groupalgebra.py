"""Group algebras over finite splitting fields.

Builds kG over GF(p^l), the smallest field that splits its center, read
off the class sums' minimal polynomials over F_p; decomposes it into
blocks by refining central idempotents, and derives per-block data:
dimension, defect number, central character, principal flag.  Dimensions
are ranks over F_p, by the sum of each block's Galois orbit, which the
cocycle solve reuses: on the way to blocks and HH^1, the Krylov rows of
minimal polynomials are the only elimination over the splitting field.
No tensor construction: kG (x) kH is k[G x H].
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .errors import (DimCapExceeded, FieldMismatch, InvariantViolation,
                     NotPrime, SplitFieldTooSmall)
from .ffield import (FieldSpec, distinct_degrees, echelon_insert,
                     field_make, is_prime, p_adic_valuation, poly_divmod,
                     poly_ext_gcd, poly_factor, poly_mod, poly_monic,
                     poly_mul)

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
    the identity as a tuple of raw field values.  ``labels`` names the
    basis; None names it g0, g1, ... as group algebras do, on first read.
    """

    def __init__(self, spec, dim, labels, sc, unit, group=None):
        self.field = spec
        self.dim = dim
        self._labels = labels
        self.sc = sc
        self.unit = tuple(unit)
        self.group = group  # the source PermGroup for group algebras

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
    """One block of a group algebra.

    ``idempotent_class_coords`` is the primitive central idempotent in the
    class-sum basis (raw field values).  ``dim`` is None when the ambient
    algebra is too large to materialise the rank computation.
    """

    index: int
    idempotent_class_coords: tuple
    dim: Optional[int]
    defect: int
    is_principal: bool
    central_character: tuple
    spec: FieldSpec
    group: object = dc_field(repr=False, default=None)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def splitting_degree(G, p):
    """Degree l of GF(p^l), the smallest field that splits the center of kG.

    The roots of a class sum's minimal polynomial on Z(F_pG) are its
    central-character values, and GF(p^a) and GF(p^b) generate
    GF(p^lcm(a, b)), so l is the lcm of the degrees of the F_p-irreducible
    factors of every class sum's minimal polynomial (`distinct_degrees`),
    which is the lcm of the blocks' Galois-orbit sizes.  Krylov rows of the
    class sum z_i, the unit times powers of sc_int[i] mod p, run over F_p
    from the group's class counts (`center`).
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    fp = field_make(p, 1)
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


def group_algebra(G, p, *, allow_large=False):
    """kG over GF(p^l) with l = splitting_degree(G, p).

    Structure constants are served lazily from the group's multiplication,
    so large groups do not materialise |G|^2 products.
    """
    ell = splitting_degree(G, p)
    spec = field_make(p, ell, _allow_large_degree=allow_large)
    unit = [spec.zero] * G.order
    unit[0] = spec.one  # element 0 is the identity (BFS enumeration)
    return StructAlgebra(spec, G.order, None, GroupTableSC(G, spec),
                         unit, group=G)


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


def block_decompose(A, G, p, seed=0):
    """All primitive central idempotents of kG with their block data.

    A worklist of orthogonal central idempotents starts from the unit.  For
    an idempotent e taken off it, the minimal polynomial of z_i e on eZ is
    factored for each class sum z_i in turn.  Its roots are central-
    character values, which lie in the splitting field, so factoring is
    root finding (`poly_factor`, PRNG seeded deterministically).  Two or
    more coprime factors split e into idempotents that go back on the list
    and resume the scan at the class that split e; when no class splits e
    it is primitive, and the roots of its single linear factors are its
    central character.  A block's dimension is rank(e_O kG) / |O| over
    F_p, e_O the sum of its Galois orbit O (`orbit_sum`), up to
    MATERIALIZE_DIM_CAP elements, and None above.  Blocks are ordered:
    principal first, then by dimension, then by e_O in class-sum
    coordinates, which no field changes, then by idempotent coordinates.
    """
    spec = A.field
    if spec.p != p:
        raise FieldMismatch("algebra characteristic differs from p")
    cb = center(G, spec)
    c = cb.class_count
    unit = cb.unit_vector()
    classes = G.conjugacy_classes()
    sizes = [spec.from_int(cl.size) for cl in classes]
    materialize = G.order <= MATERIALIZE_DIM_CAP
    work = [(unit, [])]
    blocks = []
    while work:
        e, lam = work.pop()
        for i in range(len(lam), c):
            zi = tuple(spec.one if j == i else spec.zero for j in range(c))
            w = cb.product(zi, e)
            mu = _min_poly_in_subalgebra(cb, w, e)
            factors = poly_factor(spec, mu, seed=seed)
            if len(factors) > 1:
                # a piece's minimal polynomial of z_j divides e's, so for
                # j < i it has e's single factor and e's character value
                work += [(f, lam[:]) for f in
                         _split_idempotent(cb, mu, factors, w, e)]
                break
            (irr, _), = factors
            lam.append(spec.neg(irr[0]))
        else:
            blocks.append(BlockData(
                index=0, idempotent_class_coords=e,
                dim=_block_dimension(A, G, e) if materialize else None,
                defect=_defect(classes, spec, e, p),
                is_principal=lam == sizes, central_character=tuple(lam),
                spec=spec, group=G))
    # sanity: orthogonal, complete
    total = tuple([spec.zero] * c)
    for b in blocks:
        total = tuple(spec.add(x, y)
                      for x, y in zip(total, b.idempotent_class_coords))
    if total != unit:
        raise InvariantViolation("idempotents do not sum to 1")
    for i, a in enumerate(blocks):
        for b in blocks[i + 1:]:
            prod = cb.product(a.idempotent_class_coords,
                              b.idempotent_class_coords)
            if any(not spec.is_zero(v) for v in prod):
                raise InvariantViolation("idempotents not orthogonal")
    if materialize and sum(b.dim for b in blocks) != G.order:
        raise SplitFieldTooSmall("block dimensions do not sum to |G|")
    blocks.sort(key=lambda b: (
        not b.is_principal, b.dim or 0,
        _orbit_class_sum(spec, b.idempotent_class_coords)[0],
        b.idempotent_class_coords))
    for idx, b in enumerate(blocks):
        b.index = idx
    return blocks


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


def _defect(classes, spec, coords, p):
    """The largest nu_p(|C_G(x)|) over the classes carrying a nonzero
    coefficient of a block idempotent."""
    return max(p_adic_valuation(cl.centralizer_order, p)
               for cl, v in zip(classes, coords) if not spec.is_zero(v))


def _orbit_class_sum(spec, coords):
    """(e_O, |O|): e_O the sum of the Galois orbit O of a block idempotent,
    both in class-sum coordinates, e_O as a tuple of ints in [0, p)."""
    orbit = [coords]
    while (image := tuple(map(spec.frobenius, orbit[-1]))) != coords:
        orbit.append(image)
    e = tuple(functools.reduce(spec.add, vs) for vs in zip(*orbit))
    if max(e) >= spec.p:
        raise InvariantViolation(
            "orbit sum of a block idempotent is not over F_p")
    return e, len(orbit)


def orbit_sum(G, spec, coords):
    """(coefficients, |O|): the coefficient over F_p of every element in
    e_O, the sum of the Galois orbit O of a block idempotent given in
    class-sum coordinates.  Frobenius permutes the blocks and keeps their
    dimensions, so e_O lies over F_p and e_O kG is the sum of |O| blocks of
    the block's dimension."""
    e, size = _orbit_class_sum(spec, coords)
    return np.array(e)[G.class_of_array()], size


def _block_dimension(A, G, e_class_coords):
    """dim kGb = rank(e_O kG) / |O| over F_p (`orbit_sum`), by a rank-only
    elimination of the rows e_O u, read off the support of e_O: row u
    holds the coefficient of g at gu."""
    from .ffield import rank_nullspace_raw
    coef, size = orbit_sum(G, A.field, e_class_coords)
    support = np.flatnonzero(coef)
    values = coef[support].tolist()
    rows = [dict(zip(cols, values))
            for cols in A.sc.table()[support].T.tolist()]
    rank, _ = rank_nullspace_raw(rows, G.order, field_make(A.field.p, 1),
                                 want_basis=False)
    if rank % size:
        raise InvariantViolation(
            f"orbit of {size} blocks does not divide its rank {rank}")
    return rank // size


def block_algebra(A, b):
    """The block algebra kGb on a reduced basis of the ideal A*b.

    Basis rows are the reduced echelon form of {e_i b}; structure constants
    are recomputed on that basis and the unit is b itself.
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
    if b.dim is not None and d != b.dim:
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
