"""Permutation groups held by their stabilizer chain.

Groups are given by generators acting on {0..degree-1}.  A group keeps a
given generator only when it lies outside the group of those kept before
it, so each kept one at least doubles the order: at most log2 |G| of them.
A stabilizer chain (Seress, *Permutation Group Algorithms*, 2003), built
by Schreier-Sims on numpy rows, gives the order, a base (points whose
images tell all elements apart) and the element index: sifting an
element's base images through the chain's transversals reads off its
chain index, a mixed-radix number in [0, |G|), and one array maps chain
indices to element indices.  The digits of a chain index pick one
transversal element per level, whose product is the element, so the
image of a point is k gathers through the transversal tables.  The capped
breadth-first enumeration runs on chain indices and keeps each element's
chain index; ``images(elems, points)`` computes images on demand, and no
table of full rows is kept.  ``lookup(rows)`` takes rows that may lie
outside the group and confirms each hit by sifting the full row (-1 for
non-members); ``locate(base_images)`` takes products of elements, members
by construction, from their |base| columns alone.  The enumeration's
Cayley tree is kept too, int32 throughout: the index of x*g for every
element x and generator g, and each element's parent and generator,
(ngens + 2) * 4 bytes an element, held to the memory cap with the rows'
table.  ``left_products(i)`` reads g_i x and ``conjugates(i)`` x^-1 g_i x
for every x off it, one gather per level and no sift.  The classes are
the orbits of those conjugations, and each element's class number is kept.

The on-disk group format is text: a ``degree n`` line, then one generator
per line as n whitespace-separated 1-based images.  Lines starting with
``#`` and blank lines are ignored.
"""

from __future__ import annotations

import functools
import heapq
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import (InvalidPermutation, InvariantViolation, NotAMember,
                     NotASubgroup, OrderCapExceeded)
from .ffield import p_adic_valuation

DEFAULT_ORDER_CAP = 1 << 21
DEFAULT_MEMORY_CAP = 32 << 20  # bytes of the element table, were it built
MAX_DEGREE = 1 << 16  # points 0..65535 fit the uint16 image rows


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


class _Chain:
    """A stabilizer chain over 0..degree-1 by Schreier-Sims (Seress 2003,
    Sec. 4.2), grown one generator at a time, on intp rows: a product is a
    `take`, an inverse a scatter, a list copy serves scalar lookups.

    Level y keeps the orbit of y under the generators fixing 0..y-1, each
    point with an element taking it to y and its inverse; non-trivial
    levels are the base.  `sifter` gives the levels as numpy tables.
    """

    def __init__(self, degree, order_cap, memory_cap):
        self.degree = degree
        _np_dtype(degree)  # refuses degrees past the uint16 rows
        self.caps = order_cap, memory_cap
        self.order = 1
        self._ident = np.arange(degree)
        # generator k = (s as a list, s, s^-1, lo, hi) acts on the levels
        # lo < y <= hi; todo is a heap of the negated Schreier pairs
        # (level, point, k) still to sift: the largest pops first
        self._strong, self._reps, self._paired, self._todo = [], {}, set(), []
        self._sifter = None

    def _first_moved(self, g):  # the first point g moves, or None
        x = int((moved := g != self._ident).argmax())
        return x if moved[x] else None

    def _add(self, s, lo):
        strong, reps, paired = self._strong, self._reps, self._paired
        s_inv = np.empty_like(s)
        s_inv[s] = self._ident
        strong.append((s.tolist(), s, s_inv, lo, hi := self._first_moved(s)))
        reps.setdefault(hi, {hi: (self._ident, self._ident)})
        for y, orbit in [(y, o) for y, o in reps.items() if lo < y <= hi]:
            for beta in (queue := list(orbit)):  # grows with the orbit
                for k, (t, t_row, t_inv, a, b) in enumerate(strong):
                    if a < y <= b and (y, beta, k) not in paired:
                        paired.add((y, beta, k))
                        if t[beta] in orbit:
                            heapq.heappush(self._todo, (-y, -beta, -k))
                        else:  # a tree edge: its Schreier generator is 1
                            u, u_inv = orbit[beta]
                            orbit[t[beta]] = u.take(t_inv), t_row.take(u_inv)
                            queue.append(t[beta])
        lower = math.prod(map(len, reps.values()))  # |G| is at least this
        order_cap, memory_cap = self.caps
        if (lower > order_cap or 8 * self.degree
                * sum(map(len, reps.values())) > memory_cap):
            raise OrderCapExceeded(
                f"group of at least {lower} elements: its stabilizer chain "
                f"is past the caps ({order_cap} elements, {memory_cap} bytes)")

    def _sift(self, g):
        """(residue, x): g sifted down the levels and the first point x the
        residue moves, None when the levels hold g."""
        x = self._first_moved(g)
        while x is not None and (u := self._reps.get(x, {}).get(int(g[x]))):
            g = u[0].take(g)  # fixes 0..x now
            x = self._first_moved(g)
        return g, x

    def extend(self, g):
        """Add the generator g, an intp row, unless the chain holds it, and
        complete the chain; True when the chain grew."""
        if self._sift(g)[1] is None:
            return False
        self._add(g, -1)
        reps, todo = self._reps, self._todo
        while todo:  # the top level first: every level above it is complete
            y, beta, k = (-v for v in heapq.heappop(todo))
            orbit, (s, s_row, *_) = reps[y], self._strong[k]
            # u_{s beta} s u_beta^-1 fixes 0..y; 1 when the pair is an edge
            g = orbit[s[beta]][0].take(s_row).take(orbit[beta][1])
            g, x = self._sift(g)
            if x is not None:  # g is new to the levels above y
                self._add(g, y)
        self.order = math.prod(map(len, reps.values()))
        self._sifter = None
        return True

    def sifter(self):
        if self._sifter is None:
            self._sifter = _Sifter(self.degree, sorted(self._reps.items()),
                                   self.order)
        return self._sifter


class _Sifter:
    """A stabilizer chain as numpy tables, indexing the group's elements.

    An element's chain index is read off its base images level by level:
    the image of the level's point gives a digit, its position in the
    orbit, and the orbit's element that takes it back, which is applied to
    the other images.  Read as a mixed-radix number, the digits number the
    elements 0..|G|-1.  Per level, scattered from the orbit's points, for
    every point x ``offset[x]`` is the start of x's orbit element in
    ``flat``, the orbit elements' images one after another, and ``term[x]``
    is x's digit times the level's stride.  An off-orbit point selects an
    identity row, and its term, the order, puts the index past every element.

    The element with digits d_0, d_1, ..., d_k is w_0 w_1 ... w_k, where
    w_i takes level i's point to the orbit point of digit d_i: the inverse
    of that point's row in ``flat``, kept per level in ``transversals``.
    ``radix`` holds each level's (stride, orbit length).
    """

    def __init__(self, degree, levels, order):
        ident = np.arange(degree)
        levels = levels or [(0, {0: (ident, ident)})]  # the trivial group
        self.degree, self.order = degree, order
        self.base = np.array([y for y, _ in levels])
        self.tables, self.transversals, self.radix = [], [], []
        stride = math.prod(len(orbit) for _, orbit in levels)
        for _, orbit in levels:
            stride //= len(orbit)
            points, digit = np.fromiter(orbit, np.intp), np.arange(len(orbit))
            offset = np.full(degree, len(orbit) * degree, dtype=np.int32)
            term = np.full(degree, order, dtype=np.intp)
            offset[points], term[points] = digit * degree, digit * stride
            back, forth = zip(*orbit.values())
            self.tables.append((offset, term, np.array(
                [*back, ident], dtype=np.int32).ravel()))
            self.transversals.append(np.array(forth, _np_dtype(degree)))
            self.radix.append((stride, len(orbit)))

    def images(self, chain, points, inverse=False):
        """Images of the points, one list for all or one row per element,
        under the elements of the given chain indices, or under their
        inverses: k gathers, from the last level up for w_0 ... w_k (the
        first point moved is the last w's), from the first level down
        through ``flat`` for the inverse."""
        levels = zip(self.radix, self.tables, self.transversals)
        out = points
        for (stride, length), (_, _, back), forth in (
                levels if inverse else reversed(list(levels))):
            offset = chain // stride % length * self.degree
            out = (back if inverse else forth).take(offset[:, None] + out)
        return out

    def images_of_all(self, points):
        """Images of the points under every element, in chain-index order:
        from the last level up, each level's transversals gathered at the
        images so far, so no digit is read."""
        out = points
        for forth in reversed(self.transversals):
            out = forth.take(out, axis=1)
        return out.reshape(math.prod(out.shape[:-1]), -1)

    def sift(self, images):
        """Chain index of each row of base images; the order where a digit
        is off its orbit.  Each level drops the column it has read."""
        *upper, (_, term, _) = self.tables
        index = np.zeros(len(images), dtype=np.intp)
        for offset, up_term, flat in upper:
            x = images[:, 0]
            index += up_term.take(x)
            images = flat.take(images[:, 1:] + offset.take(x)[:, None])
        index += term.take(images[:, 0])
        return np.minimum(index, self.order, out=index)

    def contains(self, rows):
        """Which full image rows lie in the group: sifted through every
        level, a member leaves the identity, and a row with a digit off
        its orbit keeps that point off its base point."""
        for y, (offset, _, flat) in zip(self.base, self.tables):
            rows = flat.take(rows + offset.take(rows[:, y])[:, None])
        return np.all(rows == np.arange(self.degree), axis=1)


def enumeration_bytes(order, degree, ngens):
    """Bytes the memory cap counts for enumerating a group: a table of the
    element rows and the Cayley tree, 4 (ngens + 2) bytes an element."""
    itemsize = np.dtype(_np_dtype(degree)).itemsize
    return order * (degree * itemsize + 4 * (ngens + 2))


def _stabilizer_chain(degree, rows, order_cap, memory_cap):
    """(kept, sifter): the indices of the rows kept as generators, each the
    first row outside the group of those before it, and their chain's
    sifter, held to the caps: the chain as it grows, then the enumeration's
    bytes."""
    chain = _Chain(degree, order_cap, memory_cap)
    rows = np.asarray(rows, dtype=np.intp).reshape(-1, degree)
    kept, outside = [], np.arange(len(rows))
    while len(outside := outside[~chain.sifter().contains(rows[outside])]):
        kept.append(int(outside[0]))
        chain.extend(rows[kept[-1]])
    order = chain.order
    if enumeration_bytes(order, degree, len(kept)) > memory_cap:
        raise OrderCapExceeded(
            f"enumeration needs more than {memory_cap} bytes ({order} "
            f"elements of degree {degree}); raise the memory cap "
            "(--allow-large) for stretch groups")
    return kept, chain.sifter()


def _closure_rows(sifter, gen_rows):
    """Breadth-first closure of generator image rows in chain-index space:
    (chain index of each element, element index of each chain index,
    Cayley tree).  A product h*g has base images h[g[base]], h's images of
    the points g[base], read off h's chain index.  Each level's new
    elements, each by its first product, are ordered by their packed base
    images.  The tree is (right, parent, step, bounds): right[t, x] is the
    index of x*g_t, as sifted; x was first reached as parent[x]*g_step[x];
    level i is bounds[i]:bounds[i + 1]."""
    degree, base, order = sifter.degree, sifter.base, sifter.order
    points = np.array(gen_rows, dtype=np.intp).reshape(-1, degree)[:, base]
    chain_of = np.empty(order, dtype=np.intp)
    chain_of[:1] = sifter.sift(base[None])
    elem_of = np.full(order + 1, -1, dtype=np.intp)  # the last: off chain
    elem_of[chain_of[0]] = 0
    first = np.full(order + 1, np.iinfo(np.intp).max)
    right = np.empty((len(points), order), dtype=np.int32)
    parent, step = np.zeros((2, order), dtype=np.int32)
    bounds = [0, 1]
    while bounds[-2] < bounds[-1]:
        lo, start = bounds[-2:]
        images = sifter.images(chain_of[lo:start], points.ravel()).reshape(
            -1, len(base))
        index = sifter.sift(images)
        if len(index) and index.max() >= order:
            raise InvariantViolation(
                f"a product sifts off the chain (chain order {order})")
        fresh = np.flatnonzero(elem_of.take(index) < 0)
        np.minimum.at(first, index[fresh], fresh)  # new at one level only
        fresh = fresh[first.take(index[fresh]) == fresh]
        fresh = fresh[_pack(images[fresh], degree).argsort()]  # distinct
        bounds.append(end := start + len(fresh))
        if end > order or start == end < order:  # the chain is wrong
            raise InvariantViolation(f"enumerated {end}, chain order {order}")
        chain_of[start:end] = index[fresh]
        elem_of[chain_of[start:end]] = np.arange(start, end)
        right[:, lo:start] = elem_of.take(index).reshape(start - lo, -1).T
        parent[start:end], step[start:end] = np.divmod(
            fresh + lo * len(points), len(points))
    return chain_of, elem_of, (right, parent, step, bounds[:-1])


class PermGroup:
    """A finite permutation group held by its stabilizer chain.

    Elements are numbered in breadth-first order from the identity.  The
    group keeps each element's chain index, and computes images (the base
    images too) on demand by `images`.  It keeps the enumeration's Cayley
    tree, ``cayley_tree`` as `_closure_rows` returns it: the element index
    of every product x*g with a generator g, and each element's parent and
    generator in the tree, all int32, (ngens + 2) * 4 bytes an element
    (2.8 MB for J1), from which `left_products` reads g x for every x
    without a sift; `conjugates` adds the conjugations t^-1 x t by each
    generator t, ngens * 4 bytes an element, on first use.  Immutable after
    construction.  Conjugacy classes, centralizers and the class counts of
    the center (`groupalgebra.center`) are computed on first use; the
    classes under a lock, so threads asking at once share one list.
    """

    def __init__(self, degree, generators, sifter,
                 order_cap=DEFAULT_ORDER_CAP, memory_cap=DEFAULT_MEMORY_CAP):
        """Enumerate the group of the generators, whose chain is sifter's."""
        self.degree = degree
        self.generators = list(generators)
        self.order_cap = order_cap
        self.memory_cap = memory_cap
        self._classes = None
        self._classes_lock = threading.Lock()
        self._centralizers = {}  # element index -> its centralizer
        self._class_counts = None  # groupalgebra.center's, on first use
        self._sifter, self.order = sifter, sifter.order
        self._chain_of, self._elem_of, self.cayley_tree = _closure_rows(
            sifter, [g.images for g in self.generators])

    # -- construction -------------------------------------------------------

    @classmethod
    def from_generators(cls, degree, generators,
                        order_cap=DEFAULT_ORDER_CAP,
                        memory_cap=DEFAULT_MEMORY_CAP):
        """The group of the generators; it keeps each one outside the group
        of those kept before it, so a redundant one is dropped."""
        gens = [g if isinstance(g, Perm) else Perm(g) for g in generators]
        bad = [g.degree for g in gens if g.degree != degree]
        if bad:
            raise InvalidPermutation(f"generator degree {bad[0]} != {degree}")
        kept, sifter = _stabilizer_chain(degree, [g.images for g in gens],
                                         order_cap, memory_cap)
        return cls(degree, [gens[i] for i in kept], sifter, order_cap,
                   memory_cap)

    @classmethod
    def from_element_rows(cls, degree, rows, order_cap=DEFAULT_ORDER_CAP,
                          memory_cap=DEFAULT_MEMORY_CAP):
        """Subgroup from an explicit element array, by the rule of
        `from_generators`: each generator is the first row outside the
        subgroup generated so far (deterministic)."""
        kept, sifter = _stabilizer_chain(degree, rows, order_cap, memory_cap)
        return cls(degree, [Perm(rows[i]) for i in kept], sifter, order_cap,
                   memory_cap)

    # -- the element index ---------------------------------------------------

    @property
    def base(self):
        """Points whose images determine an element of the group."""
        return self._sifter.base

    @property
    def base_images(self):
        """The base images of every element, one row each, by columns."""
        return self.images(None, self.base)

    def images(self, elems, points, inverse=False):
        """Images of the points under the elements of the given indices
        (None for every element), or under their inverses, as rows of the
        image dtype: ``points`` is one list for every element or one row
        per element."""
        sifter, chain = self._sifter, self._chain_of
        points = np.asarray(points, dtype=np.intp)
        if elems is None and not inverse and points.ndim == 1:
            # by columns, as the sift reads them
            out = sifter.images_of_all(points).T.take(chain, axis=1).T
        else:
            out = sifter.images(chain if elems is None else chain.take(elems),
                                points, inverse)
        return out.astype(_np_dtype(self.degree), copy=False)

    def rows(self, elems):
        """Full image rows of the elements of the given indices (None for
        every element)."""
        return self.images(elems, np.arange(self.degree))

    def locate(self, base_images):
        """Element indices of group elements given by their base images.

        Only for rows known to lie in the group (products of its
        elements): just the base columns are read.
        """
        idx = self._elem_of.take(self._sifter.sift(np.asarray(base_images)))
        if np.any(idx < 0):
            raise InvariantViolation(
                "base images of a non-member: a digit is off its orbit")
        return idx

    def _sweep(self, table, i):
        """out[0] = i, then out[x] = table[t, out[y]] for x = y t in the
        Cayley tree: one gather per level, from the identity down."""
        _, parent, step, bounds = self.cayley_tree
        out = np.empty(self.order, dtype=np.int32)
        out[0] = i
        for lo, hi in zip(bounds[1:], bounds[2:]):
            at = step[lo:hi] * np.intp(self.order)  # into table, flattened
            at += out.take(parent[lo:hi])
            out[lo:hi] = table.take(at)
        return out

    def left_products(self, i):
        """Element index of g x for every element x, g the element of index
        i, with no sift: x = y t gives g x = (g y) t."""
        return self._sweep(self.cayley_tree[0], i)

    def conjugates(self, i):
        """Element index of x^-1 g x for every element x, g the element of
        index i, with no sift: x = y t gives x^-1 g x = t^-1 (y^-1 g y) t."""
        return self._sweep(self._inner, i)

    @functools.cached_property
    def _inner(self):
        # t^-1 x t for every x, a row per generator t: (t^-1 x)*t by the tree
        rights = self.cayley_tree[0]
        out = np.empty_like(rights)
        for t, (g, right) in enumerate(zip(self.generators, rights)):
            out[t] = right.take(self.left_products(self.index_of(g.inv())))
        return out

    def lookup(self, rows):
        """Element indices of image rows, -1 for rows outside the group.

        Each hit on the base images is confirmed by sifting the full row.
        """
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self.degree:
            return np.full(len(rows), -1, dtype=np.intp)
        idx = self._elem_of.take(self._sifter.sift(rows[:, self.base]))
        hit = np.flatnonzero(idx >= 0)
        idx[hit[~self._sifter.contains(rows[hit])]] = -1
        return idx

    # -- basic queries -------------------------------------------------------

    def element(self, i):
        return Perm(self.rows([i])[0])

    def element_rows(self, inverse=False):
        """The table of every element's image row, or its inverse's, built
        on each call a column at a time, so no (order x degree) index
        array is made."""
        out = np.empty((self.order, self.degree),
                       dtype=_np_dtype(self.degree))
        for x in range(self.degree):
            out[:, x] = self.images(None, [x], inverse)[:, 0]
        return out

    def inverse_rows(self):
        return self.element_rows(inverse=True)

    def index_of(self, perm):
        if perm.degree == self.degree:
            idx = int(self.lookup(np.array([perm.images]))[0])
            if idx >= 0:
                return idx
        raise NotAMember(f"{perm!r} is not in the group")

    def multiplication_table(self):
        """The index of element i composed with element j (apply j first)
        at [i, j], over all pairs, from one locate."""
        n = self.order
        products = self.images(np.repeat(np.arange(n), n),
                               np.tile(self.base_images, (n, 1)))
        return self.locate(products).reshape(n, n)

    def is_subgroup_of(self, other):
        gens = np.array([g.images for g in self.generators],
                        dtype=np.intp).reshape(-1, self.degree)
        return (self.degree == other.degree
                and bool(np.all(other._sifter.contains(gens))))

    # -- conjugacy classes ---------------------------------------------------

    def conjugacy_classes(self):
        with self._classes_lock:
            if self._classes is None:
                self._classes = self._compute_classes()
        return self._classes

    def _compute_classes(self):
        # label every element with the smallest index in its orbit under
        # conjugation by the generators, x -> t^-1 x t; number the labels
        labels = np.arange(self.order, dtype=np.int32)
        while True:
            before = labels
            for move in self._inner:
                labels = np.minimum(labels, labels.take(move))
            labels = labels.take(labels)
            if np.array_equal(labels, before):
                break
        number = (labels == np.arange(self.order)).cumsum(dtype=np.int32) - 1
        self._class_of = number.take(labels)
        self._class_of.flags.writeable = False
        # stable (radix up to 16 bits); each class's first member is its label
        members = np.argsort(self._class_of.astype(
            np.min_scalar_type(number[-1])), kind="stable")
        sizes = np.bincount(self._class_of)
        starts = np.cumsum(sizes) - sizes
        reps = self.rows(members[starts]).tolist()
        return [ConjClass(Perm(rep), size, self.order // size,
                          members[start:start + size])
                for rep, size, start in zip(reps, sizes.tolist(),
                                            starts.tolist())]

    def class_of_array(self):
        """Element -> class index (int32) made with the classes; read-only."""
        self.conjugacy_classes()
        return self._class_of

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


def _commuting_mask(G, elems):
    # x commutes with h iff x^-1 h x = h, for the elements h of the indices
    mask = np.ones(G.order, dtype=bool)
    for i in elems:
        mask &= G.conjugates(i) == i
    return mask


def _subgroup(G, mask):
    # the subgroup of the elements where mask holds, from their rows
    return PermGroup.from_element_rows(
        G.degree, G.rows(np.flatnonzero(mask)), G.order_cap, G.memory_cap)


def centralizer(G, g):
    """Subgroup of all elements commuting with g (g must lie in G),
    kept on G by g's element index."""
    gidx = G.index_of(g)  # raises NotAMember
    if gidx == 0:
        return G
    C = G._centralizers.get(gidx)
    if C is None:
        C = _subgroup(G, _commuting_mask(G, [gidx]))
        C = G._centralizers.setdefault(gidx, C)
    return C


def subgroup_centralizer(G, H):
    """Elements of G commuting with every element of H (H inside G)."""
    if not H.is_subgroup_of(G):
        raise NotASubgroup("H is not a subgroup of G")
    return _subgroup(G, _commuting_mask(G, map(G.index_of, H.generators)))


def normalizer(G, H):
    """Normalizer of a subgroup H in G."""
    if not H.is_subgroup_of(G):
        raise NotASubgroup("H is not a subgroup of G")
    in_h = np.zeros(G.order, dtype=bool)
    in_h[G.locate(H.images(None, G.base))] = True
    # n^-1 H n = H for the n of N_G(H), a group, so for their inverses too
    mask = np.ones(G.order, dtype=bool)
    for h in H.generators:
        mask &= in_h[G.conjugates(G.index_of(h))]
    return _subgroup(G, mask)


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
        for i in np.flatnonzero(Q.lookup(N.rows(None)) < 0):
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
    commutators and generator p-th powers, grown on a stabilizer chain of
    its own from H's generators alone: each queued image row that K does
    not yet contain extends the chain, and its conjugates by H's
    generators join the queue; the search stops once K is all of H.
    """
    gens = np.array([g.images for g in H.generators],
                    dtype=np.intp).reshape(-1, H.degree)
    ginv = np.argsort(gens, axis=1)
    # the commutators a^-1 b^-1 a b, and the powers a^p = a^(p mod |a|)
    queue = [ginv[a][ginv[b][gens[a][gens[b]]]]
             for a in range(len(gens)) for b in range(len(gens))]
    queue += [functools.reduce(lambda x, _: g[x], range(p % a.order()),
                               np.arange(H.degree))
              for a, g in zip(H.generators, gens)]
    K = _Chain(H.degree, H.order_cap, H.memory_cap)
    while queue and K.order < H.order:
        s = queue.pop()
        if K.extend(s):
            queue += list(np.take_along_axis(gens, s[ginv], axis=1))
    index, rem = divmod(H.order, K.order)
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
