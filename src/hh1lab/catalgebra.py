"""Finite categories, their algebras, and the Happel probe.

Covers transporter categories of group actions, bar-complex Hochschild
cohomology in low degrees, nerve cohomology with constant coefficients,
restriction along a functor to a one-object category, Frobenius-form
certificates, and Jacobson radicals over finite fields.

Category files are text: an ``objects n`` line, then ``morphism NAME DOM
COD [identity]`` lines, then ``comp G F GF`` lines naming g, f and their
composite (g after f).  Composition must be total on composable pairs and
is validated exhaustively on load.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from random import Random
from typing import NamedTuple, Optional

import numpy as np

from .errors import (DimCapExceeded, InvalidCategory, InvariantViolation,
                     NerveCapExceeded, NotAnAction)
from .ffield import echelonize, field_make, rank_nullspace_raw
from .groupalgebra import StructAlgebra

BAR_DIM_CAP = 12
BAR_DEGREE_CAP = 4
NERVE_CHAIN_CAP = 10 ** 6
RADICAL_FP_DIM_CAP = 64
VALIDATE_TRIPLE_CAP = 10 ** 6


class Morphism(NamedTuple):
    name: str
    dom: int
    cod: int


class FinCategory:
    """A finite category: objects 0..n-1, a morphism list, a composition
    table on composable pairs, and one identity per object."""

    def __init__(self, n_objects, morphisms, comp, identities):
        self.n_objects = n_objects
        self.morphisms = list(morphisms)
        self.comp = dict(comp)
        self.identities = list(identities)

    def composable(self, g, f):
        return self.morphisms[f].cod == self.morphisms[g].dom

    def validate(self):
        """Exhaustive category-axiom check; raises InvalidCategory."""
        n = len(self.morphisms)
        if len(self.identities) != self.n_objects:
            raise InvalidCategory("one identity per object required")
        objects = range(self.n_objects)
        if any(m.dom not in objects or m.cod not in objects
               for m in self.morphisms):
            raise InvalidCategory("morphism end is not an object")
        for x, i in enumerate(self.identities):
            m = self.morphisms[i]
            if m.dom != x or m.cod != x:
                raise InvalidCategory(f"identity of object {x} has wrong ends")
        for g in range(n):
            for f in range(n):
                if self.composable(g, f):
                    if (g, f) not in self.comp:
                        raise InvalidCategory(
                            f"missing composite of {self.morphisms[g].name} "
                            f"after {self.morphisms[f].name}")
                    gf = self.comp[g, f]
                    mg, mf, mgf = (self.morphisms[g], self.morphisms[f],
                                   self.morphisms[gf])
                    if mgf.dom != mf.dom or mgf.cod != mg.cod:
                        raise InvalidCategory("composite has wrong ends")
                elif (g, f) in self.comp:
                    raise InvalidCategory("composite of non-composable pair")
        for f in range(n):
            m = self.morphisms[f]
            if self.comp[f, self.identities[m.dom]] != f:
                raise InvalidCategory("right identity law fails")
            if self.comp[self.identities[m.cod], f] != f:
                raise InvalidCategory("left identity law fails")
        # associativity on all composable triples
        count = 0
        by_dom = {}
        for g in range(n):
            by_dom.setdefault(self.morphisms[g].dom, []).append(g)
        for f in range(n):
            mf = self.morphisms[f]
            for g in by_dom.get(mf.cod, ()):
                gf = self.comp[g, f]
                for h in by_dom.get(self.morphisms[g].cod, ()):
                    count += 1
                    if count > VALIDATE_TRIPLE_CAP:
                        raise InvalidCategory(
                            "too many composable triples to validate")
                    if self.comp[h, gf] != self.comp[self.comp[h, g], f]:
                        raise InvalidCategory("associativity fails")
        return True


@dataclass
class CatFunctor:
    """A functor between finite categories (object and morphism maps)."""

    source: FinCategory
    target: FinCategory
    object_map: list
    morphism_map: list

    def validate(self):
        S, T = self.source, self.target
        for f, mf in enumerate(S.morphisms):
            img = T.morphisms[self.morphism_map[f]]
            if (img.dom != self.object_map[mf.dom]
                    or img.cod != self.object_map[mf.cod]):
                raise InvalidCategory("functor breaks dom/cod")
        for x, i in enumerate(S.identities):
            if self.morphism_map[i] != T.identities[self.object_map[x]]:
                raise InvalidCategory("functor breaks identities")
        for (g, f), gf in S.comp.items():
            lhs = T.comp[self.morphism_map[g], self.morphism_map[f]]
            if lhs != self.morphism_map[gf]:
                raise InvalidCategory("functor breaks composition")
        return True


@dataclass
class FrobeniusCertificate:
    """A verified nondegenerate associative form, given by the functional
    x -> lambda(x); symmetric means lambda vanishes on all commutators."""

    functional: tuple
    symmetric: bool
    canonical: bool


@dataclass
class HappelVerdict:
    algebra: StructAlgebra = dc_field(repr=False)
    frobenius: Optional[FrobeniusCertificate]
    semisimple: bool
    radical_dim: int
    gldim: str                 # "0" | "infinite" | "unknown"
    hh_dims: list
    nerve_dims: list
    summand_ok: bool
    first_positive_nonvanishing: Optional[int]
    happel_consistent: bool


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def one_object_category(G):
    """A group as a category with a single object."""
    morphisms = [Morphism(f"g{i}", 0, 0) for i in range(G.order)]
    table = G.multiplication_table()
    comp = {(g, f): int(table[g, f])
            for g in range(G.order) for f in range(G.order)}
    return FinCategory(1, morphisms, comp, [0])


def transporter_category(G, points, action="natural"):
    """Transporter category of a G-set: objects are the points, morphisms
    x -> y are the group elements carrying x to y.  Always a groupoid.

    ``action`` is "natural" (the permutation action; points must be closed
    under it) or "trivial" (every element fixes every point).
    """
    points = list(points)
    pt_index = {x: i for i, x in enumerate(points)}
    if action == "natural":
        for x in points:
            if not (0 <= x < G.degree):
                raise NotAnAction(f"point {x} outside the domain")
        for g in G.generators:
            for x in points:
                if g.images[x] not in pt_index:
                    raise NotAnAction("point set is not closed under G")

        def act(gi, x):
            return int(G.element_rows()[gi][x])
    elif action == "trivial":
        def act(gi, x):
            return x
    else:
        raise NotAnAction(f"unknown action kind {action!r}")

    morphisms = []
    mor_index = {}
    for gi in range(G.order):
        for xi, x in enumerate(points):
            y = act(gi, x)
            mor_index[gi, xi] = len(morphisms)
            morphisms.append(Morphism(f"g{gi}@{x}", xi, pt_index[y]))
    table = G.multiplication_table()
    comp = {}
    for (g2, x2), i2 in mor_index.items():
        for (g1, x1), i1 in mor_index.items():
            if morphisms[i1].cod == morphisms[i2].dom:
                comp[i2, i1] = mor_index[int(table[g2, g1]), x1]
    identities = [mor_index[0, xi] for xi in range(len(points))]
    cat = FinCategory(len(points), morphisms, comp, identities)
    cat._transporter_group = G
    cat._transporter_mor_index = mor_index
    return cat


def transporter_projection(cat):
    """The functor from a transporter category onto its one-object group
    category, sending the morphism (g, x) to g."""
    G = cat._transporter_group
    target = one_object_category(G)
    object_map = [0] * cat.n_objects
    morphism_map = [0] * len(cat.morphisms)
    for (gi, xi), mi in cat._transporter_mor_index.items():
        morphism_map[mi] = gi
    pi = CatFunctor(cat, target, object_map, morphism_map)
    pi.validate()
    return pi


def discrete_category(n):
    morphisms = [Morphism(f"id{x}", x, x) for x in range(n)]
    comp = {(i, i): i for i in range(n)}
    return FinCategory(n, morphisms, comp, list(range(n)))


def euler_characteristic(points, p):
    """Euler characteristic of a poset with only the equality relation:
    the number of points; returns (chi, invertible mod p)."""
    chi = len(points) if not isinstance(points, int) else points
    return chi, chi % p != 0


def category_algebra(C, spec):
    """The category algebra: morphisms as basis, composition as product
    (zero for non-composable pairs), unit the sum of identities."""
    C.validate()
    n = len(C.morphisms)
    sc = {}
    for g in range(n):
        for f in range(n):
            if C.composable(g, f):
                sc[g, f] = ((C.comp[g, f], spec.one),)
            else:
                sc[g, f] = ()
    unit = [spec.zero] * n
    for i in C.identities:
        unit[i] = spec.one
    labels = [m.name for m in C.morphisms]
    return StructAlgebra(spec, n, labels, sc, tuple(unit))


# ---------------------------------------------------------------------------
# Frobenius certificates
# ---------------------------------------------------------------------------


def _gram_matrix(A, lam):
    spec = A.field
    n = A.dim
    gram = [[spec.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = spec.zero
            for k, c in A.sc[i, j]:
                acc = spec.add(acc, spec.mul(c, lam[k]))
            gram[i][j] = acc
    return gram


def _gram_rank(A, lam):
    spec = A.field
    gram = _gram_matrix(A, lam)
    rows = [{c: v for c, v in enumerate(row) if not spec.is_zero(v)}
            for row in gram]
    rank, _ = rank_nullspace_raw(rows, A.dim, spec, want_basis=False)
    return rank, gram


def verify_frobenius_certificate(A, cert):
    """Independent re-check: Gram nonsingular, and symmetric if claimed."""
    spec = A.field
    rank, gram = _gram_rank(A, cert.functional)
    if rank != A.dim:
        return False
    if cert.symmetric:
        for i in range(A.dim):
            for j in range(A.dim):
                if gram[i][j] != gram[j][i]:
                    return False
    return True


def frobenius_certificate(A, trials=64, seed=0):
    """Search for a functional with nondegenerate associative form.

    Monomial algebras whose unit is a sum of basis idempotents (groups,
    groupoids) get the canonical functional reading off identity-component
    coefficients; otherwise a seeded random search runs for ``trials``
    attempts.  Returns a verified certificate or None: a miss never proves
    the algebra is not Frobenius.
    """
    spec = A.field
    n = A.dim
    monomial = all(len(A.sc[i, j]) <= 1
                   and all(c == spec.one for _, c in A.sc[i, j])
                   for i in range(n) for j in range(n))
    unit_ok = all(spec.is_zero(c) or c == spec.one for c in A.unit)
    if monomial and unit_ok:
        lam = tuple(A.unit)
        rank, gram = _gram_rank(A, lam)
        if rank == n:
            symmetric = all(gram[i][j] == gram[j][i]
                            for i in range(n) for j in range(n))
            return FrobeniusCertificate(functional=lam, symmetric=symmetric,
                                        canonical=True)
    rng = Random(seed)
    elements = list(spec.elements()) if spec.order <= 4096 else None
    for _ in range(trials):
        if elements is not None:
            lam = tuple(elements[rng.randrange(len(elements))]
                        for _ in range(n))
        else:
            lam = tuple(spec.from_int(rng.randrange(spec.p))
                        for _ in range(n))
        rank, gram = _gram_rank(A, lam)
        if rank == n:
            symmetric = all(gram[i][j] == gram[j][i]
                            for i in range(n) for j in range(n))
            return FrobeniusCertificate(functional=lam, symmetric=symmetric,
                                        canonical=False)
    return None


# ---------------------------------------------------------------------------
# bar-complex Hochschild cohomology
# ---------------------------------------------------------------------------


def bar_hh(A, N, dim_cap=BAR_DIM_CAP, degree_cap=BAR_DEGREE_CAP):
    """Dimensions of HH^0..HH^N from the bar cochain complex
    Hom(A^{tensor q}, A).  Degree 0 equals dim Z(A); degree 1 agrees with
    the derivation solver."""
    spec = A.field
    n = A.dim
    if n > dim_cap or N > degree_cap:
        raise DimCapExceeded(
            f"bar complex cap: dim {n} <= {dim_cap}, degree {N} <= {degree_cap}")
    # pairs_to[k] = [(u, v, c)] with e_u e_v having e_k-coefficient c
    pairs_to = [[] for _ in range(n)]
    for u in range(n):
        for v in range(n):
            for k, c in A.sc[u, v]:
                pairs_to[k].append((u, v, c))

    def tuple_index(args):
        idx = 0
        for a in args:
            idx = idx * n + a
        return idx

    minus_one = spec.neg(spec.one)

    def sign(s):
        return spec.one if s % 2 == 0 else minus_one

    def delta_rank(q):
        """Rank of delta^q: C^q -> C^{q+1}; C^q has dimension n^{q+1}."""
        def gen_rows():
            for flat in range(n ** q):
                args = []
                rem = flat
                for _ in range(q):
                    args.append(rem % n)
                    rem //= n
                args.reverse()
                args = tuple(args)
                for j in range(n):
                    row = {}

                    def add(target_args, out, coeff):
                        key = tuple_index(target_args) * n + out
                        row[key] = spec.add(row.get(key, spec.zero), coeff)

                    # a1 . f(a2..)
                    for b in range(n):
                        for k, c in A.sc[b, j]:
                            add((b,) + args, k, c)
                    # interior contractions
                    for s in range(1, q + 1):
                        target_coeff = sign(s)
                        for (u, v, c) in pairs_to[args[s - 1]]:
                            t_args = args[:s - 1] + (u, v) + args[s:]
                            add(t_args, j, spec.mul(target_coeff, c))
                    # f(a1..aq) . a_{q+1}
                    for b in range(n):
                        for k, c in A.sc[j, b]:
                            add(args + (b,), k,
                                spec.mul(sign(q + 1), c))
                    row = {c_: v for c_, v in row.items()
                           if not spec.is_zero(v)}
                    if row:
                        yield row

        rank, _ = rank_nullspace_raw(gen_rows(), n ** (q + 2), spec,
                                     want_basis=False)
        return rank

    ranks = [delta_rank(q) for q in range(N + 1)]
    dims = []
    for q in range(N + 1):
        kernel = n ** (q + 1) - ranks[q]
        image_prev = ranks[q - 1] if q >= 1 else 0
        dims.append(kernel - image_prev)
    return dims


# ---------------------------------------------------------------------------
# nerve cohomology and restriction
# ---------------------------------------------------------------------------


def _nerve_chains(C, N, cap=NERVE_CHAIN_CAP):
    """Lists of composable chains per degree 0..N (degree 0: objects)."""
    chains = [[(x,) for x in range(C.n_objects)]]
    total = C.n_objects
    by_dom = {}
    for f, m in enumerate(C.morphisms):
        by_dom.setdefault(m.dom, []).append(f)
    for q in range(1, N + 1):
        new = []
        if q == 1:
            new = [(f,) for f in range(len(C.morphisms))]
        else:
            for chain in chains[q - 1]:
                last_cod = C.morphisms[chain[-1]].cod
                for f in by_dom.get(last_cod, ()):
                    new.append(chain + (f,))
        total += len(new)
        if total > cap:
            raise NerveCapExceeded(f"nerve exceeds {cap} chains by degree {q}")
        chains.append(new)
    return chains


def _nerve_delta_rows(C, chains, q, spec):
    """Sparse rows of delta^q: functions on q-chains -> on (q+1)-chains.

    One row per (q+1)-chain sigma (kept aligned with chains[q+1], empty
    rows included): the alternating sum of its faces as columns.
    """
    minus_one = spec.neg(spec.one)
    col_index = {ch: i for i, ch in enumerate(chains[q])}
    rows = []
    for sigma in chains[q + 1]:
        row = {}

        def add(face, s):
            coeff = spec.one if s % 2 == 0 else minus_one
            c = col_index[face]
            row[c] = spec.add(row.get(c, spec.zero), coeff)

        if q == 0:
            f = sigma[0]
            add((C.morphisms[f].cod,), 0)
            add((C.morphisms[f].dom,), 1)
        else:
            add(sigma[1:], 0)
            for i in range(1, q + 1):
                composed = C.comp[sigma[i], sigma[i - 1]]
                face = sigma[:i - 1] + (composed,) + sigma[i + 1:]
                add(face, i)
            add(sigma[:-1], q + 1)
        rows.append({c: v for c, v in row.items() if not spec.is_zero(v)})
    return rows


def nerve_cohomology(C, spec, N, cap=NERVE_CHAIN_CAP):
    """Dimensions of H^0..H^N of the category with constant coefficients,
    from the simplicial cochain complex of the nerve."""
    C.validate()
    chains = _nerve_chains(C, N + 1, cap)
    ranks = []
    for q in range(N + 1):
        rows = _nerve_delta_rows(C, chains, q, spec)
        rank, _ = rank_nullspace_raw(rows, len(chains[q]), spec,
                                     want_basis=False)
        ranks.append(rank)
    dims = []
    for q in range(N + 1):
        kernel = len(chains[q]) - ranks[q]
        image_prev = ranks[q - 1] if q >= 1 else 0
        dims.append(kernel - image_prev)
    return dims


def restriction_map(pi, spec, N, cap=NERVE_CHAIN_CAP):
    """Induced map on nerve cohomology of a functor to a one-object
    category, per degree: dims, rank, and injectivity flag."""
    if pi.target.n_objects != 1:
        raise InvalidCategory("restriction target must have one object")
    pi.validate()
    S, T = pi.source, pi.target
    chains_s = _nerve_chains(S, N + 1, cap)
    chains_t = _nerve_chains(T, N + 1, cap)

    out = []
    for q in range(N + 1):
        # cocycle and coboundary data on both sides
        def complex_data(C, chains):
            _, kernel = rank_nullspace_raw(
                _nerve_delta_rows(C, chains, q, spec), len(chains[q]), spec)
            if q == 0:
                return kernel, []
            # the image of delta^{q-1} on q-chains is spanned by its
            # columns delta(e_c), one per (q-1)-chain c
            cols = [{} for _ in chains[q - 1]]
            for r, row in enumerate(_nerve_delta_rows(C, chains, q - 1, spec)):
                for c, v in row.items():
                    cols[c][r] = v
            return kernel, [col for col in cols if col]

        kern_s, im_s = complex_data(S, chains_s)
        kern_t, im_t = complex_data(T, chains_t)
        im_s_piv, _ = echelonize(im_s, len(chains_s[q]), spec)
        im_t_piv, _ = echelonize(im_t, len(chains_t[q]), spec)
        dim_hs = len(kern_s) - len(im_s_piv)
        dim_ht = len(kern_t) - len(im_t_piv)

        # pull back the target cocycle basis along the functor
        t_index = {ch: i for i, ch in enumerate(chains_t[q])}

        def push_chain(ch):
            if q == 0:
                return (0,)
            return tuple(pi.morphism_map[f] for f in ch)

        pulled = []
        for vec in kern_t:
            w = {}
            for si, ch in enumerate(chains_s[q]):
                tv = vec[t_index[push_chain(ch)]]
                if not spec.is_zero(tv):
                    w[si] = tv
            pulled.append(w)
        # rank of the induced map on cohomology
        piv_all, _ = echelonize(im_s + pulled, len(chains_s[q]), spec)
        rank_induced = len(piv_all) - len(im_s_piv)
        out.append({
            "degree": q,
            "dim_source": dim_hs,
            "dim_target": dim_ht,
            "rank": rank_induced,
            "injective": rank_induced == dim_ht,
        })
    return out


# ---------------------------------------------------------------------------
# radical via characteristic-p trace forms
# ---------------------------------------------------------------------------


def _charpoly_mod_p(M, p):
    """Characteristic polynomial coefficients (ascending, length N+1)
    of an integer matrix mod p, via Hessenberg reduction."""
    H = [[int(v) % p for v in row] for row in M]
    N = len(H)
    for j in range(N - 2):
        piv = next((r for r in range(j + 1, N) if H[r][j] % p), None)
        if piv is None:
            continue
        if piv != j + 1:
            H[piv], H[j + 1] = H[j + 1], H[piv]
            for r in range(N):
                H[r][piv], H[r][j + 1] = H[r][j + 1], H[r][piv]
        inv = pow(H[j + 1][j], p - 2, p)
        for r in range(j + 2, N):
            factor = H[r][j] * inv % p
            if factor:
                for c in range(N):
                    H[r][c] = (H[r][c] - factor * H[j + 1][c]) % p
                for rr in range(N):
                    H[rr][j + 1] = (H[rr][j + 1] + factor * H[rr][r]) % p
    # charpoly recurrence for Hessenberg matrices
    polys = [[1]]
    for k in range(1, N + 1):
        a = H[k - 1][k - 1] % p
        prev = polys[k - 1]
        poly = [0] * (k + 1)
        for i, c in enumerate(prev):
            poly[i + 1] = (poly[i + 1] + c) % p
            poly[i] = (poly[i] - a * c) % p
        beta = 1
        for i in range(k - 2, -1, -1):
            beta = beta * H[i + 1][i] % p
            coef = H[i][k - 1] * beta % p
            if coef:
                for t, c in enumerate(polys[i]):
                    poly[t] = (poly[t] - coef * c) % p
        polys.append(poly)
    return polys[N]


def _fp_restriction_regular_rep(A):
    """Left regular representation of A as matrices over the prime field,
    restricting scalars from GF(p^m).  Returns (N, list of N x N matrices
    for the F_p-basis elements)."""
    spec = A.field
    n, m, p = A.dim, spec.m, spec.p
    N = n * m
    # raw values of t^c: the base-p digit c is one
    tpow = [p ** c for c in range(m)]

    def basis_vec_index(i, c):
        return i * m + c

    mats = []
    for i in range(n):
        for c in range(m):
            M = [[0] * N for _ in range(N)]
            for j in range(n):
                for cp in range(m):
                    scalar = spec.mul(tpow[c], tpow[cp])
                    for k, ck in A.sc[i, j]:
                        val = spec.mul(scalar, ck)
                        coeffs = spec.coeffs(val)
                        for cpp in range(m):
                            if coeffs[cpp]:
                                M[basis_vec_index(k, cpp)][
                                    basis_vec_index(j, cp)] += int(coeffs[cpp])
                    for r in range(N):
                        M[r][basis_vec_index(j, cp)] %= p
            mats.append(M)
    return N, mats


def radical_and_semisimplicity(A, fp_dim_cap=RADICAL_FP_DIM_CAP):
    """Jacobson radical dimension (over the ground field) and whether the
    algebra is semisimple.

    Works over the prime field after restriction of scalars; the radical is
    cut out by iterated vanishing of characteristic-polynomial coefficients
    at p-power indices (trace form first, then the deeper coefficients that
    stay linear in characteristic p).
    """
    spec = A.field
    p, m = spec.p, spec.m
    N, mats = _fp_restriction_regular_rep(A)
    if N > fp_dim_cap:
        raise DimCapExceeded(f"prime-field dimension {N} exceeds cap")
    mats_np = [np.array(M, dtype=np.int64) for M in mats]

    basis = np.eye(N, dtype=np.int64)  # rows: current subspace coords

    def rep_of(vec):
        M = np.zeros((N, N), dtype=np.int64)
        for idx, coef in enumerate(vec):
            if coef:
                M = (M + int(coef) * mats_np[idx]) % p
        return M

    j = 0
    while p ** j <= N and len(basis):
        idx = p ** j
        reps = [rep_of(v) for v in basis]
        cond_rows = []
        for yrep in reps:
            row = {}
            for xi, xrep in enumerate(reps):
                prod = xrep @ yrep % p
                coeffs = _charpoly_mod_p(prod, p)
                sigma = coeffs[N - idx] % p  # +- elementary symmetric
                if sigma:
                    row[xi] = sigma
            if row:
                cond_rows.append(row)
        k = len(basis)
        _, kernel = rank_nullspace_raw(cond_rows, k, spec if m == 1 else
                                       field_make(p, 1))
        if not kernel:
            basis = np.zeros((0, N), dtype=np.int64)
            break
        newbasis = []
        for vec in kernel:
            coords = np.array([int(v) for v in vec], dtype=np.int64)
            newbasis.append(coords @ basis % p)
        basis = np.array(newbasis, dtype=np.int64)
        j += 1

    rad_fp = len(basis)
    if rad_fp % m:
        raise InvariantViolation("radical not stable under the field")
    rad_dim = rad_fp // m
    return rad_dim, rad_dim == 0


# ---------------------------------------------------------------------------
# the Happel probe
# ---------------------------------------------------------------------------


def happel_probe(C, p, N, *, seed=0):
    """Assemble the full verdict for a finite category at a prime.

    Builds the category algebra over GF(p) (cohomology dimensions do not
    change under field extension), certifies a Frobenius form when it can,
    computes the radical, HH^0..HH^N, nerve cohomology, and the per-degree
    summand inequality dim H^n <= dim HH^n.
    """
    C.validate()
    spec = field_make(p, 1)
    A = category_algebra(C, spec)
    cert = frobenius_certificate(A, seed=seed)
    if cert is not None and not verify_frobenius_certificate(A, cert):
        raise InvariantViolation("Frobenius certificate fails to verify")
    rad_dim, semisimple = radical_and_semisimplicity(A)
    if semisimple:
        gldim = "0"
    elif cert is not None:
        gldim = "infinite"
    else:
        gldim = "unknown"
    hh = bar_hh(A, N)
    nerve = nerve_cohomology(C, spec, N)
    summand_ok = all(nerve[q] <= hh[q] for q in range(N + 1))
    first_pos = next((q for q in range(1, N + 1) if hh[q] > 0), None)
    consistent = summand_ok
    if semisimple and any(hh[q] != 0 for q in range(1, N + 1)):
        consistent = False
    return HappelVerdict(algebra=A, frobenius=cert, semisimple=semisimple,
                         radical_dim=rad_dim, gldim=gldim, hh_dims=hh,
                         nerve_dims=nerve, summand_ok=summand_ok,
                         first_positive_nonvanishing=first_pos,
                         happel_consistent=consistent)


# ---------------------------------------------------------------------------
# category files
# ---------------------------------------------------------------------------


def _parse_int(token, lineno):
    try:
        return int(token)
    except ValueError:
        raise InvalidCategory(
            f"line {lineno}: expected an integer, got {token!r}") from None


def parse_category_file(text):
    n_objects = None
    morphisms = []
    name_index = {}
    comp_lines = []
    identities = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n_objects is None:
            if parts[0] != "objects" or len(parts) != 2:
                raise InvalidCategory(
                    f"line {lineno}: expected 'objects n'")
            n_objects = _parse_int(parts[1], lineno)
            continue
        if parts[0] == "morphism":
            if len(parts) not in (4, 5):
                raise InvalidCategory(
                    f"line {lineno}: morphism NAME DOM COD [identity]")
            name = parts[1]
            dom, cod = (_parse_int(t, lineno) for t in parts[2:4])
            if name in name_index:
                raise InvalidCategory(f"line {lineno}: duplicate {name}")
            name_index[name] = len(morphisms)
            morphisms.append(Morphism(name, dom, cod))
            if len(parts) == 5:
                if parts[4] != "identity":
                    raise InvalidCategory(f"line {lineno}: bad flag")
                identities[dom] = name_index[name]
        elif parts[0] == "comp":
            if len(parts) != 4:
                raise InvalidCategory(f"line {lineno}: comp G F GF")
            comp_lines.append((lineno, parts[1], parts[2], parts[3]))
        else:
            raise InvalidCategory(f"line {lineno}: unknown directive")
    if n_objects is None:
        raise InvalidCategory("missing 'objects n' header")
    comp = {}
    for lineno, g, f, gf in comp_lines:
        try:
            comp[name_index[g], name_index[f]] = name_index[gf]
        except KeyError as exc:
            raise InvalidCategory(f"line {lineno}: unknown morphism {exc}")
    ident_list = [identities.get(x) for x in range(n_objects)]
    if any(i is None for i in ident_list):
        raise InvalidCategory("every object needs a flagged identity")
    cat = FinCategory(n_objects, morphisms, comp, ident_list)
    cat.validate()
    return cat


def load_category_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidCategory(
            f"cannot read category file {path!r}: {exc}") from None
    return parse_category_file(text)
