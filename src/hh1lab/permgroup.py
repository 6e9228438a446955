"""Permutation groups by explicit element enumeration.

Groups are given by generators acting on {0..degree-1}.  A stabilizer chain
gives the order and a base, points whose images tell all elements apart
(Seress, *Permutation Group Algorithms*, 2003); the capped breadth-first
enumeration fills a numpy array of image rows and keys their base images
into one sorted index.  ``lookup(rows)`` takes rows that may lie outside
the group and confirms each hit on the full row (-1 for non-members);
``locate(base_images)`` takes products of elements, members by
construction, from their |base| columns alone.  Classes, centralizers,
normalizers and p-ranks are vectorised on these two.

The on-disk group format is text: a ``degree n`` line, then one generator
per line as n whitespace-separated 1-based images.  Lines starting with
``#`` and blank lines are ignored.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (InvalidPermutation, InvariantViolation, NotAMember,
                     NotASubgroup, OrderCapExceeded)
from .ffield import p_adic_valuation

DEFAULT_ORDER_CAP = 1 << 21
DEFAULT_MEMORY_CAP = 32 << 20  # bytes for the enumerated element table
MAX_DEGREE = 1 << 16  # points 0..65535 fit the uint16 image rows
_SCATTER_ENTRIES = 1 << 20  # index entries per inverse_rows chunk


class Perm:
    """A permutation of {0..degree-1} stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(int(x) for x in images)
        if sorted(images) != list(range(len(images))):
            raise InvalidPermutation(f"not a bijection: {images}")
        self.images = images

    @property
    def degree(self):
        return len(self.images)

    def __mul__(self, other):
        # (a*b)(x) = a(b(x))
        if other.degree != self.degree:
            raise InvalidPermutation("degree mismatch")
        b = other.images
        a = self.images
        return Perm(a[b[x]] for x in range(len(a)))

    def inv(self):
        out = [0] * self.degree
        for x, y in enumerate(self.images):
            out[y] = x
        return Perm(out)

    def order(self):
        return math.lcm(1, *(len(c) for c in self.cycles()))

    def cycles(self):
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = []
            x = start
            while not seen[x]:
                seen[x] = True
                cyc.append(x)
                x = self.images[x]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __eq__(self, other):
        return isinstance(other, Perm) and other.images == self.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        cyc = self.cycles()
        if not cyc:
            return "Perm(id)"
        return "Perm(" + "".join("(" + " ".join(map(str, c)) + ")" for c in cyc) + ")"


@dataclass(frozen=True)
class ConjClass:
    """One conjugacy class: representative, size, |C_G(rep)|, member indices."""

    representative: Perm
    size: int
    centralizer_order: int
    indices: np.ndarray = field(repr=False, compare=False)


def _np_dtype(degree):
    if degree > MAX_DEGREE:
        raise InvalidPermutation(
            f"degree {degree} exceeds {MAX_DEGREE}, the most points a "
            "uint16 image row holds")
    return np.uint8 if degree <= 255 else np.uint16


def _pack(images, degree):
    """Keys of base-image rows (the last axis) that sort like the rows."""
    k = images.shape[-1]
    if degree ** k >= 1 << 63:  # the images' bytes
        return np.ascontiguousarray(images, ">u2").view(f"V{2 * k}")[..., 0]
    return images.dot(_radix(degree, k))


@functools.lru_cache(maxsize=None)
def _radix(degree, k):
    return degree ** np.arange(k - 1, -1, -1, dtype=np.int64)


def _stabilizer_chain(degree, gen_rows, order_cap, memory_cap):
    """(base, |G|) by Schreier-Sims over 0..degree-1 (Seress 2003, Sec. 4.2):
    level y keeps the orbit of y under the generators fixing 0..y-1, each
    point with an element taking it to y; non-trivial levels are the base."""
    def mul(a, b):  # a*b: apply b first
        return tuple(map(a.__getitem__, b))

    def inv(a):
        return tuple(sorted(range(degree), key=a.__getitem__))

    def moved(g, x):  # the first point from x on that g moves, or None
        return next((y for y in range(x, degree) if g[y] != y), None)

    # generator k = (s, s^-1, lo, hi) acts on the levels lo < y <= hi;
    # todo holds the Schreier pairs (level, point, k) still to sift
    strong, reps, paired, todo = [], {}, set(), []

    def add(s, lo):
        strong.append((s, inv(s), lo, hi := moved(s, 0)))
        reps.setdefault(hi, {hi: tuple(range(degree))})
        for y, orbit in [(y, o) for y, o in reps.items() if lo < y <= hi]:
            for beta in (queue := list(orbit)):  # grows with the orbit
                for k, (t, t_inv, a, b) in enumerate(strong):
                    if a < y <= b and (y, beta, k) not in paired:
                        paired.add((y, beta, k))
                        if t[beta] in orbit:
                            todo.append((y, beta, k))
                        else:  # a tree edge: its Schreier generator is 1
                            orbit[t[beta]] = mul(orbit[beta], t_inv)
                            queue.append(t[beta])
        lower = math.prod(map(len, reps.values()))  # |G| is at least this
        if (lower > order_cap
                or 8 * degree * sum(map(len, reps.values())) > memory_cap):
            raise OrderCapExceeded(
                f"group of at least {lower} elements: its stabilizer chain "
                f"is past the caps ({order_cap} elements, {memory_cap} bytes)")

    for g in [g for g in gen_rows if moved(g, 0) is not None]:
        add(g, -1)
    while todo:  # the top level first: every level above it is complete
        y, beta, k = todo.pop(todo.index(max(todo)))
        orbit, s = reps[y], strong[k][0]
        g = mul(orbit[s[beta]], s)  # times w_beta^-1, it fixes y
        if g == orbit[beta]:
            continue
        g = mul(g, inv(orbit[beta]))
        x = moved(g, y + 1)
        while x is not None and g[x] in reps.get(x, ()):
            g = mul(reps[x][g[x]], g)
            x = moved(g, x + 1)
        if x is not None:  # g is new to the levels above y
            add(g, y)
    order = math.prod(map(len, reps.values()))
    if order * degree * np.dtype(_np_dtype(degree)).itemsize > memory_cap:
        raise OrderCapExceeded(
            f"enumeration needs more than {memory_cap} bytes ({order} "
            f"elements of degree {degree}); raise the memory cap "
            "(--allow-large) for stretch groups")
    return np.array(sorted(reps) or [0], dtype=np.intp), order


def _closure_rows(degree, gen_rows, order_cap, memory_cap):
    """Breadth-first closure of generator image rows: (rows, base, keys),
    each level sorted by key: rows first differ at a base point."""
    dtype = _np_dtype(degree)
    if all(g == tuple(range(degree)) for g in gen_rows):  # needs no chain
        return np.arange(degree, dtype=dtype)[None], *np.zeros((2, 1), int)
    base, order = _stabilizer_chain(degree, gen_rows, order_cap, memory_cap)
    rows = np.empty((order, degree), dtype=dtype)
    rows[0] = np.arange(degree)
    gens = np.array(gen_rows, dtype=dtype)  # h*g: base images h[g[base]]
    keys = [_pack(base[None], degree)]
    seen, start, end = keys[0], 0, 1  # seen: every key so far, sorted
    while start < end:
        level = rows[start:end]
        batch = _pack(level.take(gens[:, base], axis=1), degree).ravel()
        by_key = batch.argsort(kind="stable")
        batch = batch[by_key]
        fresh = seen.take(seen.searchsorted(batch), mode="clip") != batch
        fresh[1:] &= batch[1:] != batch[:-1]
        src, which = np.divmod(by_key[fresh], len(gens))
        start, end = end, end + len(src)
        if end > order or start == end < order:  # the chain is wrong
            raise InvariantViolation(f"enumerated {end}, chain order {order}")
        # new rows generator by generator: two takes each, where one fancy
        # index would cast an (n x degree) index array
        new = rows[start:end]
        for g, gen in enumerate(gens):
            mine = which == g
            new[mine] = level.take(src[mine], 0).take(gen, 1)
        keys.append(batch[fresh])
        seen = np.sort(np.concatenate([seen, keys[-1]]), kind="stable")
    return rows, base, np.concatenate(keys)


class PermGroup:
    """A finite permutation group with fully enumerated elements.

    Immutable after construction.  Lazy invariants (the base index,
    conjugacy classes) are computed on first use, without a lock.
    """

    def __init__(self, degree, generators, elements,
                 order_cap=DEFAULT_ORDER_CAP, memory_cap=DEFAULT_MEMORY_CAP,
                 base=None, keys=None):
        self.degree = degree
        self.generators = list(generators)
        self._elements = elements
        self.order = len(elements)
        self.order_cap = order_cap
        self.memory_cap = memory_cap
        self._classes = None
        if base is None:  # rows given directly: keyed by the full rows
            base, keys = np.arange(degree), _pack(elements, degree)
        self._base_keys = base, keys
        self._base_index = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_generators(cls, degree, generators,
                        order_cap=DEFAULT_ORDER_CAP,
                        memory_cap=DEFAULT_MEMORY_CAP):
        gens = [g if isinstance(g, Perm) else Perm(g) for g in generators]
        bad = [g.degree for g in gens if g.degree != degree]
        if bad:
            raise InvalidPermutation(f"generator degree {bad[0]} != {degree}")
        rows, base, keys = _closure_rows(degree, [g.images for g in gens],
                                         order_cap, memory_cap)
        return cls(degree, gens, rows, order_cap, memory_cap, base, keys)

    @classmethod
    def from_element_rows(cls, degree, rows, order_cap=DEFAULT_ORDER_CAP,
                          memory_cap=DEFAULT_MEMORY_CAP):
        """Subgroup from an explicit element array; each generator is the
        first row outside the subgroup generated so far (deterministic)."""
        gens = []
        H = cls.from_generators(degree, gens, order_cap, memory_cap)
        while True:
            outside = np.flatnonzero(H.lookup(rows) < 0)
            if not len(outside):
                return H
            gens.append(Perm(rows[outside[0]]))
            H = cls.from_generators(degree, gens, order_cap, memory_cap)

    # -- the base index ------------------------------------------------------

    def _index(self):
        """(base, sorted base-image keys, element index of each key)."""
        if self._base_index is None:
            base, keys = self._base_keys
            order = np.argsort(keys, kind="stable")
            if np.any(keys[order[1:]] == keys[order[:-1]]):
                raise InvariantViolation("element rows are not distinct")
            self._base_index = base, keys[order], order
        return self._base_index

    @property
    def base(self):
        """Points whose images determine an element of the group."""
        return self._index()[0]

    def _find(self, base_images):
        # element index of each row of base images, -1 where no key matches
        _, keys, order = self._index()
        query = _pack(np.asarray(base_images), self.degree)
        pos = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
        return np.where(keys[pos] == query, order[pos], -1)

    def locate(self, base_images):
        """Element indices of group elements given by their base images.

        Only for rows known to lie in the group (products of its
        elements): just the base columns are read.
        """
        idx = self._find(base_images)
        if np.any(idx < 0):
            raise InvariantViolation("base images of a non-member")
        return idx

    def lookup(self, rows):
        """Element indices of image rows, -1 for rows outside the group.

        Each hit on the base images is confirmed against the full row.
        """
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self.degree:
            return np.full(len(rows), -1, dtype=np.intp)
        idx = self._find(rows[:, self.base])
        hit = np.flatnonzero(idx >= 0)
        idx[hit[np.any(self._elements[idx[hit]] != rows[hit], axis=1)]] = -1
        return idx

    # -- basic queries -------------------------------------------------------

    def element(self, i):
        return Perm(self._elements[i])

    def element_rows(self):
        return self._elements

    def index_of(self, perm):
        if perm.degree == self.degree:
            idx = int(self.lookup(np.array([perm.images]))[0])
            if idx >= 0:
                return idx
        raise NotAMember(f"{perm!r} is not in the group")

    def product_index(self, i, j):
        """Index of element i composed with element j (apply j first)."""
        E = self._elements
        return int(self.locate(E[i][E[j][self.base]][None])[0])

    def multiplication_table(self):
        """Table of product_index over all pairs, one locate per column."""
        E = self._elements
        base = self.base
        table = np.empty((self.order, self.order), dtype=np.int64)
        for j in range(self.order):
            table[:, j] = self.locate(E[:, E[j, base]])
        return table

    def inverse_rows(self):
        """Image rows of the inverses, scattered in chunks of rows."""
        E = self._elements
        out = np.empty_like(E)
        points = np.arange(self.degree, dtype=E.dtype)[None, :]
        step = max(1, _SCATTER_ENTRIES // self.degree)
        for start in range(0, self.order, step):
            np.put_along_axis(out[start:start + step],
                              E[start:start + step], points, axis=1)
        return out

    def is_subgroup_of(self, other):
        return (self.degree == other.degree
                and bool(np.all(other.lookup(self._elements) >= 0)))

    # -- conjugacy classes ---------------------------------------------------

    def conjugacy_classes(self):
        if self._classes is None:
            self._classes = self._compute_classes()
        return self._classes

    def _compute_classes(self):
        E = self._elements
        base = self.base
        # index of g x g^-1 for every x, one array per generator g
        moves = []
        for g in self.generators:
            garr = np.asarray(g.images, dtype=E.dtype)
            ginv = np.asarray(g.inv().images, dtype=E.dtype)
            moves.append(self.locate(garr[E[:, ginv[base]]]))
        # label every element with the smallest index in its orbit
        labels = np.arange(self.order)
        while True:
            before = labels
            for move in moves:
                labels = np.minimum(labels, labels[move])
            labels = labels[labels]
            if np.array_equal(labels, before):
                break
        members = np.argsort(labels, kind="stable")
        reps, starts = np.unique(labels[members], return_index=True)
        classes = []
        for rep, idxs in zip(reps, np.split(members, starts[1:])):
            size = len(idxs)
            classes.append(ConjClass(self.element(rep), size,
                                     self.order // size, idxs))
        return classes

    def class_of_array(self):
        """Array mapping element index -> conjugacy class index."""
        out = np.zeros(self.order, dtype=np.int64)
        for ci, cl in enumerate(self.conjugacy_classes()):
            out[cl.indices] = ci
        return out

    def exponent(self):
        e = 1
        for cl in self.conjugacy_classes():
            e = math.lcm(e, cl.representative.order())
        return e

    def p_regular_class_count(self, p):
        return sum(1 for cl in self.conjugacy_classes()
                   if cl.representative.order() % p != 0)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def group_from_generators(degree, generators, order_cap=DEFAULT_ORDER_CAP,
                          memory_cap=DEFAULT_MEMORY_CAP):
    """Enumerate the group generated by the given permutations."""
    return PermGroup.from_generators(degree, generators, order_cap, memory_cap)


def conjugacy_classes(G):
    return G.conjugacy_classes()


def _commuting_mask(G, perms):
    # x*h and h*x both lie in G, so they are equal iff they agree on the base
    E = G.element_rows()
    base = G.base
    mask = np.ones(G.order, dtype=bool)
    for h in perms:
        harr = np.asarray(h.images, dtype=E.dtype)
        mask &= np.all(E[:, harr[base]] == harr[E[:, base]], axis=1)
    return mask


def centralizer(G, g):
    """Subgroup of all elements commuting with g (g must lie in G)."""
    gidx = G.index_of(g)  # raises NotAMember
    if gidx == 0:
        return G
    return PermGroup.from_element_rows(
        G.degree, G.element_rows()[_commuting_mask(G, [g])],
        G.order_cap, G.memory_cap)


def subgroup_centralizer(G, H):
    """Elements of G commuting with every element of H (H inside G)."""
    if not H.is_subgroup_of(G):
        raise NotASubgroup("H is not a subgroup of G")
    return PermGroup.from_element_rows(
        G.degree, G.element_rows()[_commuting_mask(G, H.generators)],
        G.order_cap, G.memory_cap)


def normalizer(G, H):
    """Normalizer of a subgroup H in G."""
    if not H.is_subgroup_of(G):
        raise NotASubgroup("H is not a subgroup of G")
    E = G.element_rows()
    in_h = np.zeros(G.order, dtype=bool)
    in_h[G.lookup(H.element_rows())] = True
    inv_base = G.inverse_rows()[:, G.base]
    mask = np.ones(G.order, dtype=bool)
    for h in H.generators:
        harr = np.asarray(h.images, dtype=E.dtype)
        # n h n^-1 on the base points, for every n
        mask &= in_h[G.locate(np.take_along_axis(E, harr[inv_base], axis=1))]
    return PermGroup.from_element_rows(G.degree, E[mask],
                                       G.order_cap, G.memory_cap)


def sylow_subgroup(G, p):
    """A Sylow p-subgroup, grown through normalizers.

    Returns the trivial group when p does not divide |G|.  A p-subgroup
    that is not yet Sylow is properly contained in a larger p-subgroup of
    its normalizer, so repeatedly adjoining a p-element of the normalizer
    reaches the full p-part.
    """
    caps = (G.order_cap, G.memory_cap)
    target = p ** p_adic_valuation(G.order, p)
    if target == 1:
        return PermGroup.from_generators(G.degree, [], *caps)
    # seed with a p-element derived from the first element of order
    # divisible by p in enumeration order
    e = next(G.element(i) for i in range(G.order)
             if G.element(i).order() % p == 0)
    o = e.order()
    seed = functools.reduce(Perm.__mul__,
                            [e] * (o // p ** p_adic_valuation(o, p)))
    Q = PermGroup.from_generators(G.degree, [seed], *caps)
    while Q.order < target:
        N = normalizer(G, Q)
        grown = False
        for i in np.flatnonzero(Q.lookup(N.element_rows()) < 0):
            cand = N.element(i)
            o = cand.order()
            if o != 1 and o == p ** p_adic_valuation(o, p):
                Q = PermGroup.from_generators(
                    G.degree, Q.generators + [cand], *caps)
                grown = True
                break
        if not grown:  # pragma: no cover - cannot happen for valid input
            raise OrderCapExceeded("sylow growth stalled")
    return Q


def p_rank_abelianization(H, p):
    """Rank d with H/[H,H]H^p elementary abelian of order p^d.

    Computed as the index of K, the normal closure of generator
    commutators and generator p-th powers.  K is a membership mask over
    H's elements: each new generator of K extends it by a breadth-first
    closure on element indices and queues its conjugates by the generators
    of H, and the search stops once K is all of H.
    """
    E = H.element_rows()
    base = H.base
    in_k = np.zeros(H.order, dtype=bool)
    in_k[0] = True
    kbase, pending = [], []
    for a in H.generators:
        pending += [a.inv() * b.inv() * a * b for b in H.generators]
        k = p % a.order()  # a^p = a^k, and K holds the identity already
        if k:
            pending.append(functools.reduce(Perm.__mul__, [a] * k))
    sub_order = 1
    while pending and sub_order < H.order:
        s = pending.pop(0)
        if in_k[H.locate(np.asarray(s.images)[base][None])[0]]:
            continue
        # <K, s>: right multiples of K by s, then of each new element by
        # every generator of K
        kbase.append(np.asarray(s.images)[base])
        frontier, steps = np.flatnonzero(in_k), kbase[-1:]
        while len(frontier):
            hit = np.zeros(H.order, dtype=bool)
            for b in steps:
                hit[H.locate(E[frontier[:, None], b])] = True
            frontier = np.flatnonzero(hit & ~in_k)
            in_k[frontier] = True
            steps = kbase
        sub_order = int(np.count_nonzero(in_k))
        pending += [h * s * h.inv() for h in H.generators]
    index, rem = divmod(H.order, sub_order)
    if rem:
        raise InvariantViolation("commutator closure is not a subgroup")
    d = p_adic_valuation(index, p)
    if index != p ** d:
        raise InvariantViolation(
            "abelianized quotient is not elementary abelian")
    return d


def direct_product(G, H):
    """G x H acting on the disjoint union of the two point sets, under the
    larger of the factors' caps."""
    d1, d2 = G.degree, H.degree
    gens = []
    for g in G.generators:
        gens.append(Perm(list(g.images) + [d1 + x for x in range(d2)]))
    for h in H.generators:
        gens.append(Perm(list(range(d1)) + [d1 + x for x in h.images]))
    P = PermGroup.from_generators(d1 + d2, gens,
                                  max(G.order_cap, H.order_cap),
                                  max(G.memory_cap, H.memory_cap))
    if P.order != G.order * H.order:
        raise OrderCapExceeded(
            "direct product enumeration produced a wrong order")
    return P


# ---------------------------------------------------------------------------
# Group files
# ---------------------------------------------------------------------------


def parse_group_file(text):
    """Parse the text group format; returns (degree, [Perm])."""
    degree = None
    gens = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        tokens = parts[1:] if degree is None else parts
        try:
            numbers = [int(tok) for tok in tokens]
        except ValueError:
            raise InvalidPermutation(
                f"line {lineno}: expected integers, got {line!r}") from None
        if degree is None:
            if len(parts) != 2 or parts[0] != "degree" or numbers[0] < 1:
                raise InvalidPermutation(
                    f"line {lineno}: expected 'degree n', got {line!r}")
            degree = numbers[0]
            continue
        images = [v - 1 for v in numbers]
        if len(images) != degree:
            raise InvalidPermutation(
                f"line {lineno}: expected {degree} images, got {len(images)}")
        gens.append(Perm(images))
    if degree is None:
        raise InvalidPermutation("missing 'degree n' header")
    return degree, gens


def format_group_file(degree, gens, comment=None):
    lines = []
    if comment:
        for c in comment.splitlines():
            lines.append(f"# {c}")
    lines.append(f"degree {degree}")
    for g in gens:
        lines.append(" ".join(str(x + 1) for x in g.images))
    return "\n".join(lines) + "\n"
