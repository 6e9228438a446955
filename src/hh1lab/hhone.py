"""First Hochschild cohomology by two independent routes.

Route one solves the Leibniz linear system for derivations of a structure-
constant algebra and subtracts the inner ones (dim A - dim Z(A)).  Route
two never touches linear algebra: it sums p-ranks of abelianised
centralizers over conjugacy classes.  The two are compared on every report.
Block values come from the one whole-algebra solve: every derivation of kG
kills the central idempotents, so Der(kG) is the sum of the Der(kGb).

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
from .ffield import (echelonize, is_prime, np_kernel_mod_p, np_rref_mod_p,
                     rank_nullspace_raw, sparse_rows)
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

    algebra: object
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


def _derivations_general(A):
    """Kernel of the Leibniz system; returns raw basis vectors (length n^2)."""
    return rank_nullspace_raw(_leibniz_rows(A), A.dim ** 2, A.field)[1]


def _derivations_group_like(A):
    """Derivation basis for an algebra whose basis multiplies like a group.

    Images of the basis elements are propagated from generator images along
    a spanning tree of the multiplication table, which eliminates the bulk
    of the Leibniz system up front; the residual constraints involve only
    generator-image unknowns.  Output is identical to the general solver.
    """
    spec = A.field
    p = spec.p
    n = A.dim
    table = A.group_table()
    e0 = next(i for i, c in enumerate(A.unit) if not spec.is_zero(c))

    inv = np.argmax(table == e0, axis=1)

    # greedy generators and BFS tree from the identity
    gens = []
    known = {e0}
    for idx in range(n):
        if idx in known:
            continue
        gens.append(idx)
        frontier = [e0]
        known = {e0}
        while frontier:
            nxt = []
            for w in frontier:
                for s in gens:
                    ws = int(table[w, s])
                    if ws not in known:
                        known.add(ws)
                        nxt.append(ws)
            frontier = nxt
    r = len(gens)
    if r == 0:
        return []  # the ground field: no nonzero derivations
    gpos = {s: a for a, s in enumerate(gens)}

    # propagate coefficient matrices C_w (n x n*r) along a BFS tree
    C = [None] * n
    C[e0] = np.zeros((n, n * r), dtype=np.int64)
    for s in gens:
        a = gpos[s]
        M = np.zeros((n, n * r), dtype=np.int64)
        M[np.arange(n), a * n + np.arange(n)] = 1
        C[int(table[e0, s])] = M  # e0 * s = s
    tree_edges = {(e0, s) for s in gens}
    frontier = [int(table[e0, s]) for s in gens]
    while frontier:
        nxt = []
        for w in frontier:
            winv = int(inv[w])
            ldiv = table[winv]           # t -> w^{-1} t
            for s in gens:
                ws = int(table[w, s])
                if C[ws] is not None:
                    continue
                a = gpos[s]
                sinv = int(inv[s])
                rdiv = table[:, sinv]    # t -> t s^{-1}
                M = C[w][rdiv].copy()
                M[np.arange(n), a * n + ldiv] += 1
                C[ws] = M % p
                tree_edges.add((w, s))
                nxt.append(ws)
        frontier = nxt

    # residual Leibniz constraints for every non-tree (w, generator) pair
    blocks = []
    for w in range(n):
        winv = int(inv[w])
        ldiv = table[winv]
        for s in gens:
            if (w, s) in tree_edges:
                continue
            a = gpos[s]
            sinv = int(inv[s])
            rdiv = table[:, sinv]
            M = C[w][rdiv].copy()
            M[np.arange(n), a * n + ldiv] += 1
            blocks.append((C[int(table[w, s])] - M) % p)
    # n*r pairs against n - 1 tree edges: the residual is never empty
    kern = np_kernel_mod_p(np.concatenate(blocks), p)

    # reconstruct full derivation matrices and canonicalise
    # entry w*n + i of derivation b is row i of C[w] @ kern[b]
    flat = (np.stack(C).reshape(n * n, n * r) @ kern.T % p).T
    rref, pivots = np_rref_mod_p(flat, p)
    return rref[:len(pivots)].tolist()


def derivation_space(A):
    """Solve for Der(A) and report dim HH^1(A).

    The Leibniz system has n^2 unknowns (the matrix of the derivation) and
    n^3 sparse constraint rows; algebras with a group-like basis take a
    propagation shortcut with identical output.
    """
    n = A.dim
    if n > SPARSE_DIM_CAP:
        raise DimCapExceeded(
            f"dim {n} exceeds the solver cap {SPARSE_DIM_CAP}")
    z = _center_dimension(A)
    if A.is_group_like():
        basis_vecs = _derivations_group_like(A)
    else:
        basis_vecs = _derivations_general(A)
    der_dim = len(basis_vecs)
    # entry (t, i) of a derivation's matrix is vec[i*n + t]
    stack = np.array(basis_vecs, dtype=object).reshape(der_dim, n, n)
    matrices = [tuple(map(tuple, mat))
                for mat in stack.transpose(0, 2, 1).tolist()]
    hh1 = der_dim - (n - z)
    if hh1 < 0:
        raise InvariantViolation(
            "negative HH1 dimension: solver inconsistency")
    return DerivationSpace(algebra=A, der_dim=der_dim, center_dim=z,
                           hh1_dim=hh1, basis=matrices)


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
    pc_inter = int(np.count_nonzero(C.lookup(P.element_rows()) >= 0))
    pc_order = P.order * C.order // pc_inter
    if N.order % pc_order:
        raise InvariantViolation("|P C_G(P)| does not divide |N_G(P)|")
    return N.order // pc_order


# ---------------------------------------------------------------------------
# block-level reports
# ---------------------------------------------------------------------------


def _block_hh1(whole, b):
    """dim HH^1(kGb) read off the derivations of the whole group algebra.

    A derivation D kills the central idempotent b, since D(b) = D(b^2) =
    2bD(b) forces D(b) = 0.  So D R_b, with R_b right multiplication by b,
    is D on kGb and 0 on kG(1 - b), and the D_i R_b span Der(kGb).  The
    inner derivations of kGb are ad(kGb), whose kernel is Z(kG)b, hence
    HH^1(kGb) = rank{D_i R_b} - (dim kGb - dim Z(kG)b).  The whole solve's
    basis has entries in F_p, so D_i R_b and the z b (z a class sum) are
    formed one base-p digit of b's raw values at a time.
    """
    A = whole.algebra
    G = A.group
    spec = A.field
    p, n = spec.p, A.dim
    table = A.group_table()
    D = np.array(whole.basis, dtype=np.int64).reshape(-1, n, n)
    sums = np.eye(len(G.conjugacy_classes()),
                  dtype=np.int64)[G.class_of_array()]
    bvec = np.array(b.idempotent_vector(), dtype=object)
    der = np.zeros(D.shape, dtype=object)
    cen = np.zeros(sums.shape, dtype=object)
    for k in range(spec.m):
        # column i of R is the digit k of e_i b = sum_g b_g e_{ig}
        R = np.zeros((n, n), dtype=np.int64)
        R[table, np.arange(n)[:, None]] = (bvec // p ** k % p).astype(np.int64)
        der += (D @ R % p).astype(object) * p ** k
        cen += (R @ sums % p).astype(object) * p ** k
    inner = b.dim - _rank(cen.T, spec)
    return _rank(der.reshape(len(D), n * n), spec) - inner


def _rank(mat, spec):
    """Rank of a 2-d array of raw field values."""
    return rank_nullspace_raw(sparse_rows(mat), mat.shape[1], spec,
                              want_basis=False)[0]


def hh1_blocks(G, p, *, name=None, seed=0, allow_large=False,
               run_oracle=True):
    """Per-block HH^1 dimensions with consistency checks.

    Decomposes kG, solves for Der(kG) once and reads each block's HH^1 off
    that solve (`_block_hh1`).  The block sum is checked against the
    whole-algebra value, and the total against the centralizer oracle.
    When kG is over the solver cap, every block row carries the cap error
    and the oracle fills the total.
    """
    name = name or f"G{G.order}"
    A = group_algebra(G, p, allow_large=allow_large)
    blocks = block_decompose(A, G, p, seed=seed)
    consistency = {}
    try:
        whole = derivation_space(A)
    except DimCapExceeded as exc:
        per_block = [BlockHH1Row(b.index, b.dim, b.defect, None, "solver",
                                 error=str(exc)) for b in blocks]
        total = None
    else:
        per_block = [BlockHH1Row(b.index, b.dim, b.defect,
                                 _block_hh1(whole, b), "solver")
                     for b in blocks]
        block_sum = sum(row.hh1_dim for row in per_block)
        total = whole.hh1_dim
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
