"""First Hochschild cohomology by two independent routes.

Route one is linear algebra: for kG and its blocks, the cocycles
Z^1(G, kG) over F_p solved one conjugacy class at a time along the Cayley
tree the group's enumeration keeps (`cocycle_space`), each block's share
read off by the sum e_O of its Galois orbit O, once per orbit; for other
algebras, the Leibniz system for derivations less the inner ones
(`derivation_space`).  Route two never touches linear algebra: it sums
p-ranks of abelianised centralizers over conjugacy classes.  The two are
compared on every report.

Also here: the tensor-product dimension identity, the cyclic-block
dimension formula, principal-block inertial quotients, and the subtraction
bookkeeping used to pin down a principal block from a whole-algebra total.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .errors import (DimCapExceeded, InvariantViolation, NegativeResult,
                     NonDivisor, NotPrime, TrivialSylow)
# echelonize and block_algebra are not called here; the benchmark tracer
# wraps them by name
from .ffield import (echelonize, is_prime, matmul_mod, np_kernel_mod_p,
                     np_rref_mod_p, rank_nullspace_raw)
from .groupalgebra import block_algebra, block_decompose, group_algebra
from .permgroup import (centralizer, normalizer, p_rank_abelianization,
                        subgroup_centralizer, sylow_subgroup)

SPARSE_DIM_CAP = 256


@dataclass
class DerivationSpace:
    """Derivations of an algebra and the induced first-cohomology count.

    ``basis`` holds n x n matrices (tuples of row tuples, raw field values);
    column i of a matrix is the image of basis element i.  hh1_dim is
    der_dim - (dim A - center_dim): the kernel of x -> [x, -] is the center,
    so inner derivations contribute exactly dim A - dim Z(A).
    """

    der_dim: int
    center_dim: int
    hh1_dim: int
    basis: list = dc_field(repr=False)


@dataclass
class BlockHH1Row:
    block_index: int
    dim: Optional[int]
    defect: int
    hh1_dim: Optional[int]
    method: str
    error: Optional[str] = None


@dataclass
class HH1Report:
    group: str
    prime: int
    total_hh1: Optional[int]
    per_block: list
    verdicts: list          # (block_index, defect, nonvanishing bool or None)
    counterexamples: list   # block indices with defect >= 1 and hh1 == 0
    consistency: dict


# ---------------------------------------------------------------------------
# the derivation solver
# ---------------------------------------------------------------------------


def _center_dimension(A):
    """dim Z(A): the kernel of a -> [a, -]."""
    rank, _ = rank_nullspace_raw(_inner_derivation_rows(A), A.dim ** 2,
                                 A.field, want_basis=False)
    return A.dim - rank


def _inner_derivation_rows(A):
    """ad(e_a) = [e_a, -] of each basis element as a sparse row; entry
    (k, j) sits at j*n + k, the solver's column-major unknown index."""
    spec = A.field
    n = A.dim
    rows = []
    for a in range(n):
        row = {}
        for j in range(n):
            for k, c in A.sc[a, j]:
                row[j * n + k] = spec.add(row.get(j * n + k, spec.zero), c)
            for k, c in A.sc[j, a]:
                row[j * n + k] = spec.sub(row.get(j * n + k, spec.zero), c)
        rows.append({u: v for u, v in row.items() if not spec.is_zero(v)})
    return rows


def _leibniz_rows(A):
    """Yield the sparse Leibniz constraint rows, one per (i, j, t).

    Unknown u = i*n + t is the e_t-coordinate of the image of e_i.  Rows
    assemble lazily per basis pair so peak memory tracks the active
    elimination state, not the full n^3 system.
    """
    spec = A.field
    n = A.dim
    # left/right multiplication tables: by_target[j][t] = [(s, c^t_{sj})]
    right = [dict() for _ in range(n)]
    left = [dict() for _ in range(n)]
    for s in range(n):
        for j in range(n):
            for k, c in A.sc[s, j]:
                right[j].setdefault(k, []).append((s, c))
                left[s].setdefault(k, []).append((j, c))
    for i in range(n):
        for j in range(n):
            for t in range(n):
                row = {}
                # D(e_i e_j)_t = sum_k c^k_ij D[k]_t
                for k, c in A.sc[i, j]:
                    u = k * n + t
                    row[u] = spec.add(row.get(u, spec.zero), c)
                for s, c in right[j].get(t, ()):
                    u = i * n + s
                    row[u] = spec.sub(row.get(u, spec.zero), c)
                for s, c in left[i].get(t, ()):
                    u = j * n + s
                    row[u] = spec.sub(row.get(u, spec.zero), c)
                row = {u: v for u, v in row.items() if not spec.is_zero(v)}
                if row:
                    yield row


def derivation_space(A):
    """Solve for Der(A) and report dim HH^1(A).

    The Leibniz system has n^2 unknowns (the matrix of the derivation) and
    n^3 sparse constraint rows.  Group algebras take `cocycle_space`
    instead; this general path is their reference in the tests.
    """
    n = A.dim
    if n > SPARSE_DIM_CAP:
        raise DimCapExceeded(
            f"dim {n} exceeds the solver cap {SPARSE_DIM_CAP}")
    z = _center_dimension(A)
    basis_vecs = rank_nullspace_raw(_leibniz_rows(A), n * n, A.field)[1]
    der_dim = len(basis_vecs)
    # entry (t, i) of a derivation's matrix is vec[i*n + t]
    stack = np.array(basis_vecs, dtype=object).reshape(der_dim, n, n)
    matrices = [tuple(map(tuple, mat))
                for mat in stack.transpose(0, 2, 1).tolist()]
    hh1 = der_dim - (n - z)
    if hh1 < 0:
        raise InvariantViolation(
            "negative HH1 dimension: solver inconsistency")
    return DerivationSpace(der_dim=der_dim, center_dim=z, hh1_dim=hh1,
                           basis=matrices)


def verify_leibniz(A, matrix):
    """Exhaustively check the Leibniz identity for an n x n matrix."""
    spec = A.field
    n = A.dim
    cols = [tuple(matrix[t][i] for t in range(n)) for i in range(n)]
    for i in range(n):
        ei = A.basis_vector(i)
        for j in range(n):
            ej = A.basis_vector(j)
            lhs = [spec.zero] * n
            for k, c in A.sc[i, j]:
                for t in range(n):
                    lhs[t] = spec.add(lhs[t], spec.mul(c, cols[k][t]))
            rhs1 = A.multiply(cols[i], ej)
            rhs2 = A.multiply(ei, cols[j])
            rhs = [spec.add(a, b) for a, b in zip(rhs1, rhs2)]
            if tuple(lhs) != tuple(rhs):
                return False
    return True


# ---------------------------------------------------------------------------
# group algebras: cocycles one conjugacy class at a time
# ---------------------------------------------------------------------------


@dataclass
class CocycleSpace:
    """Z^1(G, kG) and B^1(G, kG) over F_p, G acting on kG by conjugation.

    D -> f_D, f_D(g) = D(g) g^-1, takes Der(kG) onto Z^1 and Inn(kG) onto
    B^1.  Rows are values on the r generators: entry a*n + t is the
    e_t-coordinate of f(s_a).  ``coboundaries`` is a basis of B^1 in RREF.
    ``class_terms`` holds dim H^1(G, k[x]) for each class x, in class order.
    """

    class_terms: list
    table: np.ndarray = dc_field(repr=False)
    cocycles: np.ndarray = dc_field(repr=False)
    coboundaries: np.ndarray = dc_field(repr=False)


def cocycle_space(A):
    """Z^1(G, kG) of a group algebra, solved one class at a time.

    Conjugation keeps the span k[x] of each class x.  On k[x], the rule
    f(ws) = f(w) + w.f(s) gives f(w) as a matrix C[w] over the |x| r
    unknowns f(s), s one of the group's r generators.  The Cayley tree of
    the group's enumeration (``cayley_tree``) gives every element
    x = parent[x] s_step[x] its matrix from its parent's, a level at a
    time, and every other edge (w, s) of the Cayley graph, ending at
    right[s, w] = ws, is a residual constraint.  The coboundaries on k[x]
    have dimension |x| - 1, so H^1(G, k[x]) = dim Z^1(G, k[x]) - |x| + 1.
    """
    n = A.dim
    if n > SPARSE_DIM_CAP:
        raise DimCapExceeded(
            f"dim {n} exceeds the solver cap {SPARSE_DIM_CAP}")
    G, p = A.group, A.field.p
    table = A.sc.table()
    inv = np.argmax(table == 0, axis=1)  # element 0 is the identity
    right, parent, step, bounds = G.cayley_tree
    r = len(right)
    # the n r - n + 1 edges (w, s_a) off the tree
    off_tree = np.ones((r, n), dtype=bool)
    off_tree[step[1:], parent[1:]] = False
    ra, rw = np.nonzero(off_tree)
    rws = right[ra, rw]

    terms, cocycles = [], []
    for cl in G.conjugacy_classes():
        m, cols = cl.size, np.arange(cl.size)
        pos = np.zeros(n, dtype=np.int64)
        pos[cl.indices] = cols
        # w x_i w^-1 is x_conj[w, i]: w moves coordinate i of f(s) there
        conj = pos[table[table[:, cl.indices], inv[:, None]]]
        C = np.zeros((n, m, m * r), dtype=np.int64)
        for lo, hi in zip(bounds[1:], bounds[2:]):
            w = parent[lo:hi]
            C[lo:hi] = C[w]
            C[np.arange(lo, hi)[:, None], conj[w],
              (step[lo:hi] * m)[:, None] + cols] += 1
        R = C[rws] - C[rw]
        R[np.arange(len(rw))[:, None], conj[rw], (ra * m)[:, None] + cols] -= 1
        kern = np_kernel_mod_p(R.reshape(len(R) * m, m * r), p)
        terms.append(len(kern) - m + 1)
        Z = np.zeros((len(kern), r, n), dtype=np.int64)
        Z[:, :, cl.indices] = kern.reshape(len(kern), r, m)
        cocycles.append(Z.reshape(len(kern), r * n))

    # f(s) = s u s^-1 - u for each u; the class sums are the invariants
    B = np.zeros((n, r, n), dtype=np.int64)
    for a, s in enumerate(right[:, 0].tolist()):  # 1 s_a = s_a
        B[np.arange(n), a, table[table[s], inv[s]]] += 1
        B[np.arange(n), a, np.arange(n)] -= 1
    B, pivots = np_rref_mod_p(B.reshape(n, r * n), p)
    if len(pivots) != n - len(terms):
        raise InvariantViolation(
            f"coboundaries of rank {len(pivots)} != {n - len(terms)}")
    return CocycleSpace(terms, table, np.concatenate(cocycles),
                        B[:len(pivots)])


# ---------------------------------------------------------------------------
# the centralizer-sum oracle
# ---------------------------------------------------------------------------


def additive_oracle(G, p):
    """dim HH^1(kG) as a sum over conjugacy classes of the p-rank of the
    abelianised centralizer.  Independent of all linear algebra above."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    total = 0
    for cl in G.conjugacy_classes():
        C = centralizer(G, cl.representative)
        total += p_rank_abelianization(C, p)
    return total


# ---------------------------------------------------------------------------
# arithmetic predictors and bookkeeping
# ---------------------------------------------------------------------------


def kuenneth_hh1(hh1_a, z_a, hh1_b, z_b):
    """dim HH^1 of a tensor product from the factors:
    hh1(A) * z(B) + z(A) * hh1(B)."""
    for v in (hh1_a, z_a, hh1_b, z_b):
        if v < 0:
            raise NegativeResult("dimensions must be nonnegative")
    return hh1_a * z_b + z_a * hh1_b


def cyclic_formula(p_order, e_order):
    """Predicted dim HH^1 of a block with cyclic defect group of order
    p_order and inertial quotient of order e_order: (|P|-1)/|E|.

    Stated for blocks with a nontrivial inertial quotient; the nilpotent
    case (|E| = 1, the full group algebra of a cyclic p-group) measures
    |P|, not |P|-1, so callers should not apply the formula there.
    """
    if e_order <= 0 or (p_order - 1) % e_order != 0:
        raise NonDivisor(f"{e_order} does not divide {p_order - 1}")
    return (p_order - 1) // e_order


def bookkeeping_subtract(total, known):
    """Remaining dimension once known per-block contributions are removed."""
    s = sum(known)
    if s > total:
        raise NegativeResult(f"known contributions {s} exceed total {total}")
    return total - s


def principal_inertial_quotient(G, p):
    """|N_G(P) / (P C_G(P))| for P a Sylow p-subgroup."""
    P = sylow_subgroup(G, p)
    if P.order == 1:
        raise TrivialSylow(f"{p} does not divide the group order")
    N = normalizer(G, P)
    C = subgroup_centralizer(G, P)
    in_c = C.lookup(P.rows(None)) >= 0
    pc_inter = int(np.count_nonzero(in_c))
    pc_order = P.order * C.order // pc_inter
    if N.order % pc_order:
        raise InvariantViolation("|P C_G(P)| does not divide |N_G(P)|")
    return N.order // pc_order


# ---------------------------------------------------------------------------
# block-level reports
# ---------------------------------------------------------------------------


def _block_hh1(cocycles, b):
    """dim HH^1(kGb) from the action of b on the cocycles.

    A central b maps a cocycle f to bf, and HH^1(kGb) = b HH^1(kG), of
    dimension (rank(e_O Z + B) - rank B) / |O| for the orbit sum e_O of b
    over F_p.
    """
    size = b.orbit_size
    coef = np.array(b.idempotent_class_coords)[b.group.class_of_array()]
    n, p = b.group.order, b.spec.p
    rows = np.zeros((n, n), dtype=np.int64)  # row u is e_O u: g at gu
    rows[np.arange(n)[:, None], cocycles.table.T] = coef
    Z, B = cocycles.cocycles, cocycles.coboundaries
    eZ = matmul_mod(Z.reshape(-1, n), rows, p).reshape(Z.shape)
    rank = len(np_rref_mod_p(np.vstack([eZ, B]), p)[1]) - len(B)
    if rank % size:
        raise InvariantViolation(
            f"orbit of {size} blocks does not divide HH1 {rank}")
    return rank // size


def hh1_blocks(G, p, *, name=None, seed=0, allow_large=False,
               run_oracle=True):
    """Per-block HH^1 dimensions with consistency checks.

    Decomposes kG, solves for its cocycles once and reads each orbit's
    HH^1 off that solve (`_block_hh1`), once for all the blocks of an
    orbit.  The block sum is checked against the whole-algebra value, and
    the total against the centralizer oracle.
    When kG is over the solver cap, every block row carries the cap error
    and the oracle fills the total.
    """
    name = name or f"G{G.order}"
    A = group_algebra(G, p, allow_large=allow_large)
    blocks = block_decompose(A, G, p, seed=seed)
    consistency = {}
    try:
        cocycles = cocycle_space(A)
    except DimCapExceeded as exc:
        per_block = [BlockHH1Row(b.index, b.dim, b.defect, None, "solver",
                                 error=str(exc)) for b in blocks]
        total = None
    else:
        hh1 = {}
        for b in blocks:
            if b.idempotent_class_coords not in hh1:
                hh1[b.idempotent_class_coords] = _block_hh1(cocycles, b)
        per_block = [BlockHH1Row(b.index, b.dim, b.defect,
                                 hh1[b.idempotent_class_coords], "solver")
                     for b in blocks]
        block_sum = sum(row.hh1_dim for row in per_block)
        total = sum(cocycles.class_terms)
        consistency["whole_algebra_hh1"] = total
        consistency["block_sum_equals_whole"] = (block_sum == total)
        if block_sum != total:
            raise InvariantViolation(
                f"block sum {block_sum} != whole-algebra {total}")
    if run_oracle:
        oracle = additive_oracle(G, p)
        consistency["oracle_total"] = oracle
        if total is not None:
            consistency["oracle_equals_solver"] = (oracle == total)
        else:
            total = oracle
    verdicts = []
    counterexamples = []
    for row in per_block:
        if row.defect >= 1:
            flag = None if row.hh1_dim is None else (row.hh1_dim > 0)
            verdicts.append((row.block_index, row.defect, flag))
            if flag is False:
                counterexamples.append(row.block_index)
        else:
            verdicts.append((row.block_index, row.defect, None))
    return HH1Report(group=name, prime=p, total_hh1=total,
                     per_block=per_block, verdicts=verdicts,
                     counterexamples=counterexamples,
                     consistency=consistency)
