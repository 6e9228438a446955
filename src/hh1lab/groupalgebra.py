"""Group algebras over finite splitting fields.

Builds kG with a field large enough to split the center, decomposes it
into blocks by refining central idempotents, and derives per-block data:
dimension, defect number, central character, principal flag.  Also supplies
the tensor construction used to check the block decomposition of k(G x H)
against pairwise products.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .errors import (DimCapExceeded, FieldMismatch, InvariantViolation,
                     NotPrime, SplitFieldTooSmall)
from .ffield import (FieldSpec, echelon_insert, field_make, is_prime,
                     p_adic_valuation, poly_divmod, poly_ext_gcd,
                     poly_factor, poly_mod, poly_monic, poly_mul)

# caps for materialising dense data; stretch-scale groups stay lazy
MATERIALIZE_DIM_CAP = 512
TENSOR_DIM_CAP = 4096


class GroupTableSC:
    """Lazy structure constants of a group algebra: e_i * e_j = e_{ij}, from
    the multiplication table up to MATERIALIZE_DIM_CAP elements."""

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
        if self._group.order <= MATERIALIZE_DIM_CAP:
            return ((int(self.table()[i, j]), self._one),)
        return ((self._group.product_index(i, j), self._one),)


class StructAlgebra:
    """Finite-dimensional associative algebra with a distinguished basis.

    ``sc`` maps a pair (i, j) of basis indices to a tuple of (k, raw
    coefficient) terms of e_i e_j.  It may be a plain dict or a lazy view
    (group algebras at large order).  ``unit`` is the coordinate vector of
    the identity as a tuple of raw field values.
    """

    def __init__(self, spec, dim, labels, sc, unit, group=None):
        self.field = spec
        self.dim = dim
        self.labels = list(labels)
        self.sc = sc
        self.unit = tuple(unit)
        self.group = group  # the source PermGroup for group algebras

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
    = sum_k sc_int[i,j,k] * class_sum_k.  They are field-independent counts;
    reduce mod p on use.
    """

    group: object
    spec: FieldSpec
    class_count: int
    sc_int: np.ndarray = dc_field(repr=False)

    def product(self, u, v):
        """Product of two center elements in class-sum coordinates."""
        spec = self.spec
        c = self.class_count
        out = [spec.zero] * c
        for i in range(c):
            if spec.is_zero(u[i]):
                continue
            for j in range(c):
                if spec.is_zero(v[j]):
                    continue
                coef = spec.mul(u[i], v[j])
                row = self.sc_int[i, j]
                for k in range(c):
                    a = int(row[k]) % spec.p
                    if a:
                        out[k] = spec.add(out[k],
                                          spec.mul(coef, spec.from_int(a)))
        return tuple(out)

    def unit_vector(self):
        """Coordinates of 1 (the class of the identity is a singleton)."""
        spec = self.spec
        G = self.group
        out = [spec.zero] * self.class_count
        for ci, cl in enumerate(G.conjugacy_classes()):
            if cl.size == 1 and cl.representative.order() == 1:
                out[ci] = spec.one
                return tuple(out)
        raise InvariantViolation("identity class not found")  # pragma: no cover


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


def _class_vector(G, spec, coords):
    """Coordinates in kG of a center element given in the class-sum basis."""
    out = [spec.zero] * G.order
    for coef, cl in zip(coords, G.conjugacy_classes()):
        if not spec.is_zero(coef):
            for i in cl.indices:
                out[int(i)] = coef
    return tuple(out)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def splitting_degree(G, p):
    """Degree m with GF(p^m) splitting the center of kG.

    m is the multiplicative order of p modulo the p'-part of the exponent
    of G, which makes every central character take values in GF(p^m).
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    e = G.exponent()
    while e % p == 0:
        e //= p
    if e == 1:
        return 1
    m = 1
    r = p % e
    while r != 1:
        r = r * p % e
        m += 1
    return m


def group_algebra(G, p, *, allow_large=False):
    """kG over GF(p^m) with m = splitting_degree(G, p).

    Structure constants are served lazily from the group's multiplication,
    so large groups do not materialise |G|^2 products.
    """
    m = splitting_degree(G, p)
    spec = field_make(p, m, _allow_large_degree=allow_large)
    unit = [spec.zero] * G.order
    unit[0] = spec.one  # element 0 is the identity (BFS enumeration)
    labels = [f"g{i}" for i in range(G.order)]
    return StructAlgebra(spec, G.order, labels, GroupTableSC(G, spec),
                         unit, group=G)


def center(A, G):
    """Center of a group algebra in the class-sum basis.

    Structure constants are integer counts: for classes C_i, C_j and a
    fixed representative g_k of C_k, the count of pairs (x, y) with
    x in C_i, y in C_j and xy = g_k; binned by iterating one class.
    """
    classes = G.conjugacy_classes()
    c = len(classes)
    class_of = G.class_of_array()
    inv_rows = G.inverse_rows()
    base = G.base
    sc_int = np.zeros((c, c, c), dtype=np.int64)
    for k, cl in enumerate(classes):
        gk = np.asarray(cl.representative.images)
        # classes of x^{-1} g_k for every x at once, from its base images
        j_arr = class_of[G.locate(inv_rows[:, gk[base]])]
        sc_int[:, :, k] = np.bincount(class_of * c + j_arr,
                                      minlength=c * c).reshape(c, c)
    return CenterBasis(G, A.field, c, sc_int)


def _min_poly_in_subalgebra(cb, w, unit):
    """Minimal polynomial of w inside the unital subalgebra unit*Z.

    Krylov rows w^deg (with w^0 = unit) go into an insertion echelon, each
    carrying a tag column c + deg after the c class-sum columns.  The first
    row whose class-sum part reduces to zero leads with a tag; its tags are
    the coefficients of the first linear dependence among the powers.
    """
    spec = cb.spec
    c = cb.class_count
    pivots, rowlist = {}, []
    deg = 0
    current = tuple(unit)
    while True:
        row = {i: v for i, v in enumerate(current) if not spec.is_zero(v)}
        row[c + deg] = spec.one
        if echelon_insert(row, pivots, rowlist, spec) >= c:
            tags = rowlist[-1]
            return poly_monic(spec, [tags.get(c + j, spec.zero)
                                     for j in range(deg + 1)])
        deg += 1
        current = cb.product(current, w)


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
    central character.  Blocks are ordered: principal first, then by
    dimension, then by idempotent coordinates.
    """
    spec = A.field
    if spec.p != p:
        raise FieldMismatch("algebra characteristic differs from p")
    cb = center(A, G)
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
    blocks.sort(key=lambda b: (not b.is_principal, b.dim or 0,
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


def _block_dimension(A, G, e_class_coords):
    """dim kGb as the rank of right multiplication by the idempotent."""
    from .ffield import rank_nullspace_raw
    spec = A.field
    n = G.order
    bvec = _class_vector(G, spec, e_class_coords)
    # e_j b = sum of b_g e_{jg}; the jg are distinct for a fixed j
    support = [(g, v) for g, v in enumerate(bvec) if not spec.is_zero(v)]
    table = A.sc.table()
    rows = [{int(table[j, g]): v for g, v in support} for j in range(n)]
    rank, _ = rank_nullspace_raw(rows, n, spec, want_basis=False)
    return rank


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
    bvec = _class_vector(G, spec, b.idempotent_class_coords)
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


def tensor_algebra(A, B):
    """Tensor product algebra on the pair basis."""
    if A.field != B.field:
        raise FieldMismatch("tensor factors over different fields")
    spec = A.field
    n, m = A.dim, B.dim
    if n * m > TENSOR_DIM_CAP:
        raise DimCapExceeded(f"tensor dimension {n * m} exceeds cap")

    def pair(i, ip):
        return i * m + ip

    sc = {}
    for i in range(n):
        for j in range(n):
            terms_a = A.sc[i, j]
            for ip in range(m):
                for jp in range(m):
                    terms_b = B.sc[ip, jp]
                    entries = []
                    for k, ck in terms_a:
                        for kp, ckp in terms_b:
                            entries.append((pair(k, kp), spec.mul(ck, ckp)))
                    sc[pair(i, ip), pair(j, jp)] = tuple(entries)
    unit = [spec.zero] * (n * m)
    for i, ci in enumerate(A.unit):
        if spec.is_zero(ci):
            continue
        for ip, cip in enumerate(B.unit):
            if not spec.is_zero(cip):
                unit[pair(i, ip)] = spec.mul(ci, cip)
    labels = [f"{la}*{lb}" for la in A.labels for lb in B.labels]
    return StructAlgebra(spec, n * m, labels, sc, tuple(unit))
