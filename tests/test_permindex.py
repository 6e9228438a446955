"""The base-image element index of PermGroup and the code built on it.

Property tests check the enumeration, lookups, classes, the center,
centralizers, normalizers and p-ranks of random small groups against
brute-force references that never touch the index or the chain; the
sweeps along the enumeration's Cayley tree are checked against the
sifted products they replace.  Pin tests hold element order and class
data to values recorded before the index replaced the bytes-keyed dict,
and before the stabilizer chain replaced the bytes-keyed enumeration.
"""

import hashlib
import itertools
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import (example, given, settings, strategies as st,
                        target)

from hh1lab import permgroup
from hh1lab.cli import CorpusManifest, main, resolve_group
from hh1lab.errors import InvariantViolation, NotAMember, OrderCapExceeded
from hh1lab.ffield import field_make
from hh1lab.groupalgebra import block_decompose, center, group_algebra
from hh1lab.hhone import additive_oracle, cocycle_space, hh1_blocks
from hh1lab.permgroup import (Perm, PermGroup, centralizer, direct_product,
                              enumeration_bytes, group_from_generators,
                              normalizer, p_rank_abelianization)

PROPERTY = settings(max_examples=60, deadline=None)


def groups(max_degree, max_order, *, aim=None):
    """Groups generated by 1-3 random permutations of small degree.

    With ``aim``, Hypothesis targets orders near it, by |log(order / aim)|:
    at aim = 12 for the bound 24, A4 and D12 score best, S4 and AGL(1, 5)
    next to them, and the upper half of the range is drawn without every
    later example sitting at the bound, where the solver properties take
    about a second each.
    """
    def build(gens):
        return group_from_generators(len(gens[0]), [Perm(g) for g in gens])

    def aimed(G):
        target(-abs(math.log(G.order / aim)), label="order near aim")
        return G

    gens = st.integers(1, max_degree).flatmap(
        lambda n: st.lists(st.permutations(range(n)), min_size=1,
                           max_size=3))
    drawn = gens.map(build).filter(lambda G: G.order <= max_order)
    return drawn if aim is None else drawn.map(aimed)


# -- brute-force references: full rows and a dict of row tuples ------------


def _rows(G):
    return G.element_rows().astype(np.int64)


def _row_index(G):
    return {tuple(r): i for i, r in enumerate(_rows(G).tolist())}


def _inverses(E):
    return np.argsort(E, axis=1)


def _compose(a, b):
    """Rows of a*b (apply b first) for row arrays a, b of one shape."""
    return np.take_along_axis(a, b, axis=-1)


def _brute_classes(G):
    E = _rows(G)
    index = _row_index(G)
    inv = _inverses(E)
    seen = np.zeros(G.order, dtype=bool)
    classes = []
    for x in range(G.order):
        if seen[x]:
            continue
        conj = _compose(_compose(E, np.broadcast_to(E[x], E.shape)), inv)
        orbit = sorted({index[tuple(r)] for r in conj.tolist()})
        seen[orbit] = True
        classes.append(orbit)
    return classes


def _element_set(G):
    return {tuple(r) for r in _rows(G).tolist()}


def _closure(rows):
    """Subgroup generated by a set of row tuples, as a set of tuples."""
    degree = len(next(iter(rows)))
    found = {tuple(range(degree))}
    frontier = list(found)
    while frontier:
        fresh = []
        for a in frontier:
            for b in rows:
                c = tuple(a[x] for x in b)
                if c not in found:
                    found.add(c)
                    fresh.append(c)
        frontier = fresh
    return found


def _triple_count(G):
    """sc_int by brute force: for each class k and each x, the y with
    x y = g_k, binned by the classes of x and y."""
    E = _rows(G)
    classes = G.conjugacy_classes()
    class_of = G.class_of_array()
    c = len(classes)
    counts = np.zeros((c, c, c), dtype=np.int64)
    for k, cl in enumerate(classes):
        gk = np.array(cl.representative.images)
        for x in range(G.order):
            ys = np.flatnonzero(np.all(E[x][E] == gk, axis=1))
            np.add.at(counts, (class_of[x], class_of[ys], k), 1)
    return counts


# -- properties --------------------------------------------------------------


@PROPERTY
@given(groups(7, 5040))
def test_lookup_finds_members_and_rejects_the_rest(G):
    E = G.element_rows()
    assert np.array_equal(G.lookup(E), np.arange(G.order))
    members = _element_set(G)
    assert len(members) == G.order
    others = [p for p in itertools.permutations(range(G.degree))
              if p not in members]
    if others:
        assert np.all(G.lookup(np.array(others)) == -1)


@PROPERTY
@given(groups(7, 720))
def test_classes_are_the_conjugation_orbits(G):
    classes = G.conjugacy_classes()
    assert [list(cl.indices) for cl in classes] == _brute_classes(G)
    assert classes[0].indices.tolist() == [0]  # the identity's class
    for cl in classes:
        assert cl.representative == G.element(int(cl.indices[0]))
        assert cl.size * cl.centralizer_order == G.order


@PROPERTY
@given(groups(5, 120))
def test_center_counts_match_a_triple_count(G):
    assert np.array_equal(center(G, field_make(2, 1)).sc_int,
                          _triple_count(G))


@PROPERTY
@given(groups(5, 120))
def test_center_builds_no_inverse_table(G):
    def refuse(self):
        raise AssertionError("center built the table of inverse rows")

    with mock.patch.object(PermGroup, "inverse_rows", refuse):
        sc_int = center(G, field_make(2, 1)).sc_int
    assert np.array_equal(sc_int, _triple_count(G))


@PROPERTY
@given(groups(7, 720), st.integers(0, 10 ** 6))
def test_centralizer_matches_a_full_row_check(G, pick):
    E = _rows(G)
    g = E[pick % G.order]
    commutes = np.all(E[:, g] == g[E], axis=1)
    C = centralizer(G, Perm(g))
    assert _element_set(C) == {tuple(r) for r in E[commutes].tolist()}


@PROPERTY
@given(groups(6, 720), st.lists(st.integers(0, 10 ** 6), min_size=1,
                                max_size=2), groups(6, 720))
def test_normalizer_and_subgroup_test_match_brute_force(G, picks, K):
    E = _rows(G)
    H = group_from_generators(G.degree,
                              [Perm(E[i % G.order]) for i in picks])
    assert H.is_subgroup_of(G)
    assert K.is_subgroup_of(G) == (K.degree == G.degree
                                   and _element_set(K) <= _element_set(G))
    hset = _element_set(H)
    inv = _inverses(E)
    hrows = _rows(H)
    expected = set()
    for n in range(G.order):
        conj = _compose(_compose(np.broadcast_to(E[n], hrows.shape), hrows),
                        np.broadcast_to(inv[n], hrows.shape))
        if {tuple(r) for r in conj.tolist()} == hset:
            expected.add(tuple(E[n].tolist()))
    assert _element_set(normalizer(G, H)) == expected


@PROPERTY
@given(groups(5, 120), st.sampled_from([2, 3, 5]))
def test_p_rank_matches_a_naive_closure(G, p):
    E = _rows(G)
    inv = _inverses(E)
    seeds = set()
    for x in range(G.order):
        xs = np.broadcast_to(E[x], E.shape)
        xinv = np.broadcast_to(inv[x], E.shape)
        comm = _compose(_compose(_compose(xinv, inv), xs), E)
        seeds.update(tuple(r) for r in comm.tolist())
        power = np.arange(G.degree)
        for _ in range(p):
            power = E[x][power]
        seeds.add(tuple(power.tolist()))
    index = G.order // len(_closure(seeds))
    d = 0
    while index % p == 0:
        index //= p
        d += 1
    assert index == 1
    assert p_rank_abelianization(G, p) == d


# -- sweeps along the Cayley tree against sifted products -------------------


def _sifted_center(G):
    """sc_int with the class of g_k^-1 x read off by sifting its base
    images, for every x, one locate per class."""
    classes = G.conjugacy_classes()
    c = len(classes)
    class_of = G.class_of_array()
    reps_inv = np.array([cl.representative.inv().images for cl in classes])
    inv_class = class_of[G.locate(reps_inv[:, G.base])]
    counts = np.zeros((c, c, c), dtype=np.int64)
    for k in range(c):
        j = inv_class[class_of[G.locate(reps_inv[k][G.base_images])]]
        counts[:, :, k] = np.bincount(class_of * c + j,
                                      minlength=c * c).reshape(c, c)
    return counts


def _sifted_p_rank(H, p):
    """The p-rank with K closed under right multiplication, each step's
    products sifted, and the same seeds and conjugates as the library."""
    base = H.base
    gens = [np.asarray(g.images) for g in H.generators]
    pending = []
    for a in gens:
        for b in gens:  # the commutator a^-1 b^-1 a b
            pending.append(np.argsort(a)[np.argsort(b)[a[b]]][base])
        power = np.arange(H.degree)
        for _ in range(p):
            power = a[power]
        pending.append(power[base])
    pending = list(H.locate(np.array(pending))) if pending else []
    in_k = np.zeros(H.order, dtype=bool)
    in_k[0] = True
    kbase = []
    while pending and in_k.sum() < H.order:
        s = pending.pop(0)
        if in_k[s]:
            continue
        kbase.append(H.base_images[s])
        frontier = np.flatnonzero(in_k)
        while len(frontier):
            prods = [H.locate(H.images(frontier, np.tile(b, (len(frontier),
                                                              1))))
                     for b in kbase]
            frontier = np.setdiff1d(np.concatenate(prods),
                                    np.flatnonzero(in_k))
            in_k[frontier] = True
        srow = H.rows([s])[0]
        pending += [int(H.locate(g[srow[np.argsort(g)[base]]][None])[0])
                    for g in gens]
    index = H.order // int(in_k.sum())
    d = 0
    while index % p == 0:
        index //= p
        d += 1
    assert index == 1
    return d


def _check_tree_sweeps(G):
    n, base = G.order, G.base
    for i in range(n):
        products = G.images(np.full(n, i), G.base_images)  # g x
        assert np.array_equal(G.left_products(i), G.locate(products))
        conj = G.images(None, products, inverse=True)  # x^-1 g x
        assert np.array_equal(G.conjugates(i), G.locate(conj))
    for g, move in zip(G.generators, G._inner):  # x -> g^-1 x g
        garr, ginv = np.asarray(g.images), np.asarray(g.inv().images)
        assert np.array_equal(move,
                              G.locate(ginv[G.images(None, garr[base])]))
    assert np.array_equal(center(G, field_make(2, 1)).sc_int,
                          _sifted_center(G))
    for cl in G.conjugacy_classes():
        C = centralizer(G, cl.representative)
        for p in (2, 3, 5):
            assert p_rank_abelianization(C, p) == _sifted_p_rank(C, p)


@PROPERTY
@example(group_from_generators(3, []))  # the trivial group, no generators
@given(groups(5, 120))
def test_tree_sweeps_match_sifted_products(G):
    _check_tree_sweeps(G)


# -- the stabilizer chain and the enumeration against set-based references --


def _reference_rows(degree, gens):
    """Breadth-first closure deduplicated with a Python set, each level
    sorted by full rows: identity first, then the products h*g of the last
    level's elements h with each generator g that were not seen before."""
    level = [tuple(range(degree))]
    seen = set(level)
    rows = list(level)
    while level:
        level = sorted({tuple(h[x] for x in g) for h in level
                        for g in gens} - seen)
        seen.update(level)
        rows += level
    return rows


def _greedy_base(rows):
    """Each point, in order, whose images split the rows further, until
    they are told apart; [0] for the trivial group."""
    base, labels = [], [()] * len(rows)
    for x in range(len(rows[0])):
        if len(set(labels)) == len(rows):
            break
        refined = [label + (r[x],) for label, r in zip(labels, rows)]
        if len(set(refined)) > len(set(labels)):
            base.append(x)
            labels = refined
    return base or [0]


def _check_enumeration(G):
    gens = [g.images for g in G.generators]
    rows = _reference_rows(G.degree, gens)
    assert G.element_rows().tolist() == [list(r) for r in rows]
    assert permgroup._stabilizer_chain(
        G.degree, gens, math.inf, math.inf)[1].order == G.order
    assert G.base.tolist() == _greedy_base(rows)


@PROPERTY
@given(groups(7, 5040))
def test_enumeration_matches_a_set_based_closure(G):
    _check_enumeration(G)


@PROPERTY
@given(groups(5, 60), groups(5, 60))
def test_direct_products_match_a_set_based_closure(G, H):
    # products stack the factors' bases: longer bases than one factor has
    _check_enumeration(direct_product(G, H))


def _three_hundred_points():
    # eight disjoint transpositions on 300 points: base 0, 2, ..., 14, and
    # 300^8 > 2^63, so the keys are the base images' bytes
    gens = [Perm([x ^ 1 if x == 2 * i or x == 2 * i + 1 else x
                  for x in range(300)]) for i in range(8)]
    return group_from_generators(300, gens)


def test_a_base_too_long_for_integer_keys():
    G = _three_hundred_points()
    _check_enumeration(G)
    assert G.base.tolist() == list(range(0, 16, 2))
    E = G.element_rows()
    assert np.array_equal(G.lookup(E), np.arange(256))
    assert np.array_equal(G.locate(E[:, G.base]), np.arange(256))


def test_order_cap_is_checked_while_the_chain_grows():
    # S30: the orbit lengths pass the cap long before the chain is complete
    n = 30
    gens = [Perm([1, 0] + list(range(2, n))), Perm(list(range(1, n)) + [0])]
    with pytest.raises(OrderCapExceeded, match=(
            r"group of at least \d+ elements: its stabilizer chain is past "
            r"the caps \(2097152 elements, 33554432 bytes\)")):
        group_from_generators(n, gens)


def test_the_chain_is_held_to_the_memory_cap():
    # one regular orbit of 600 points keeps 600 elements of 600 entries,
    # 2.9 MB at 8 bytes an entry, where the table would take 0.7 MB
    n = 600
    with pytest.raises(OrderCapExceeded, match=(
            r"group of at least 600 elements: its stabilizer chain is past "
            r"the caps \(2097152 elements, 1048576 bytes\)")):
        group_from_generators(n, [Perm(list(range(1, n)) + [0])],
                              memory_cap=1 << 20)


def test_the_cayley_tree_is_held_to_the_memory_cap():
    # C2^12: 4096 rows of 24 bytes take 98,304 B, under 128 KiB, but the
    # tree adds 4 (12 + 2) bytes an element, 327,680 B in all
    gens = [Perm([x ^ 1 if x // 2 == i else x for x in range(24)])
            for i in range(12)]
    with pytest.raises(OrderCapExceeded, match=(
            r"enumeration needs more than 131072 bytes \(4096 elements of "
            r"degree 24\)")):
        group_from_generators(24, gens, memory_cap=128 << 10)
    assert group_from_generators(24, gens, memory_cap=320 << 10).order == 4096


def test_redundant_generators_are_dropped():
    # S4 from (0 1), (0 1 2 3), the identity, (0 1) again and their
    # product: the last three lie in the group of the first two
    t, c = Perm([1, 0, 2, 3]), Perm([1, 2, 3, 0])
    G = group_from_generators(4, [t, c, Perm([0, 1, 2, 3]), t, t * c])
    K = group_from_generators(4, [t, c])
    assert G.generators == [t, c]
    assert len(G.generators) <= math.log2(G.order)
    assert np.array_equal(G.element_rows(), K.element_rows())
    assert [(cl.representative, cl.size, cl.indices.tolist())
            for cl in G.conjugacy_classes()] == [
        (cl.representative, cl.size, cl.indices.tolist())
        for cl in K.conjugacy_classes()]
    for p in (2, 3):
        assert hh1_blocks(G, p) == hh1_blocks(K, p)
    # the cocycle solve takes one unknown per generator and class member
    assert cocycle_space(group_algebra(G, 3)).cocycles.shape[1] == 2 * 24


@pytest.mark.parametrize("skew", [-1, 1])
def test_an_enumeration_off_the_chain_order_raises(monkeypatch, skew):
    chain = permgroup._stabilizer_chain

    def skewed(*args):
        kept, sifter = chain(*args)
        sifter.order += skew
        return kept, sifter

    monkeypatch.setattr(permgroup, "_stabilizer_chain", skewed)
    with pytest.raises(InvariantViolation, match="chain order"):
        group_from_generators(4, [Perm([1, 2, 3, 0])])


# -- the numpy chain against the tuple chain it replaced --------------------
#
# The stabilizer chain, the sifter's tables, the enumeration and the class
# labelling as they were when the chain ran on image tuples, kept as
# references (without the caps): the numpy rows must give the same
# generators, orbits, transversals, element order, Cayley tree and classes.


def _mul(a, b):  # image tuples, a*b: apply b first
    return tuple(map(a.__getitem__, b))


def _inv(a):
    return tuple(sorted(range(len(a)), key=a.__getitem__))


def _moved(g, x):  # the first point from x on that g moves, or None
    return next((y for y in range(x, len(g)) if g[y] != y), None)


class _TupleChain:
    """A stabilizer chain over 0..degree-1 by Schreier-Sims (Seress 2003,
    Sec. 4.2), grown one generator at a time.

    Level y keeps the orbit of y under the generators fixing 0..y-1, each
    point with an element taking it to y; non-trivial levels are the base.
    """

    def __init__(self, degree):
        self.degree = degree
        self.order = 1
        # generator k = (s, s^-1, lo, hi) acts on the levels lo < y <= hi;
        # todo holds the Schreier pairs (level, point, k) still to sift
        self._strong, self._reps, self._paired, self._todo = [], {}, set(), []

    def _add(self, s, lo):
        strong, reps, paired = self._strong, self._reps, self._paired
        strong.append((s, _inv(s), lo, hi := _moved(s, 0)))
        reps.setdefault(hi, {hi: tuple(range(self.degree))})
        for y, orbit in [(y, o) for y, o in reps.items() if lo < y <= hi]:
            for beta in (queue := list(orbit)):  # grows with the orbit
                for k, (t, t_inv, a, b) in enumerate(strong):
                    if a < y <= b and (y, beta, k) not in paired:
                        paired.add((y, beta, k))
                        if t[beta] in orbit:
                            self._todo.append((y, beta, k))
                        else:  # a tree edge: its Schreier generator is 1
                            orbit[t[beta]] = _mul(orbit[beta], t_inv)
                            queue.append(t[beta])

    def extend(self, g):
        """Add the generator g, an image tuple, and complete the chain."""
        if _moved(g, 0) is None:
            return
        self._add(g, -1)
        reps, todo = self._reps, self._todo
        while todo:  # the top level first: every level above it is complete
            y, beta, k = todo.pop(todo.index(max(todo)))
            orbit, s = reps[y], self._strong[k][0]
            g = _mul(orbit[s[beta]], s)  # times w_beta^-1, it fixes y
            if g == orbit[beta]:
                continue
            g = _mul(g, _inv(orbit[beta]))
            x = _moved(g, y + 1)
            while x is not None and g[x] in reps.get(x, ()):
                g = _mul(reps[x][g[x]], g)
                x = _moved(g, x + 1)
            if x is not None:  # g is new to the levels above y
                self._add(g, y)
        self.order = math.prod(map(len, reps.values()))

    def contains(self, g):
        x = _moved(g, 0)
        while x is not None and g[x] in self._reps.get(x, ()):
            g = _mul(self._reps[x][g[x]], g)
            x = _moved(g, x + 1)
        return x is None

    def tables(self):
        """(base, tables, transversals, radix) as the sifter held them."""
        degree, order = self.degree, self.order
        ident, points = tuple(range(degree)), np.arange(degree)
        levels = sorted(self._reps.items()) or [(0, {0: ident})]
        base = [y for y, _ in levels]
        tables, transversals, radix = [], [], []
        stride = math.prod(len(orbit) for _, orbit in levels)
        for _, orbit in levels:
            stride //= len(orbit)
            digit = dict(zip(orbit, range(len(orbit))))
            back = np.array([*orbit.values(), ident], dtype=np.int32)
            forth = np.empty((len(orbit), degree),
                             dtype=permgroup._np_dtype(degree))
            forth[np.arange(len(orbit))[:, None], back[:-1]] = points
            tables.append((
                np.array([digit.get(x, len(orbit)) * degree
                          for x in range(degree)], dtype=np.int32),
                np.array([digit[x] * stride if x in digit else order
                          for x in range(degree)], dtype=np.intp),
                back.ravel()))
            transversals.append(forth)
            radix.append((stride, len(orbit)))
        return base, tables, transversals, radix


def _tuple_closure(sifter, gen_rows):
    """The enumeration with a stable sort of every new product's key and
    the first of equal keys kept."""
    degree, base, order = sifter.degree, sifter.base, sifter.order
    points = np.array(gen_rows, dtype=np.intp).reshape(-1, degree)[:, base]
    chain_of = np.empty(order, dtype=np.intp)
    chain_of[:1] = sifter.sift(base[None])
    elem_of = np.full(order + 1, -1, dtype=np.intp)  # the last: off chain
    elem_of[chain_of[0]] = 0
    right = np.empty((len(points), order), dtype=np.int32)
    parent, step = np.zeros((2, order), dtype=np.int32)
    bounds = [0, 1]
    while bounds[-2] < bounds[-1]:
        lo, start = bounds[-2:]
        images = sifter.images(chain_of[lo:start], points.ravel()).reshape(
            -1, len(base))
        index = sifter.sift(images)
        fresh = np.flatnonzero(elem_of.take(index) < 0)
        fresh = fresh[permgroup._pack(images[fresh], degree).argsort(
            kind="stable")]
        keep = np.ones(len(fresh), dtype=bool)  # the first of equal keys
        keep[1:] = index[fresh[1:]] != index[fresh[:-1]]
        fresh = fresh[keep]
        bounds.append(end := start + len(fresh))
        chain_of[start:end] = index[fresh]
        elem_of[chain_of[start:end]] = np.arange(start, end)
        right[:, lo:start] = elem_of.take(index).reshape(start - lo, -1).T
        parent[start:end], step[start:end] = np.divmod(
            fresh + lo * len(points), len(points))
    return chain_of, elem_of, (right, parent, step, bounds[:-1])


def _tuple_classes(G):
    """Class members by a stable sort of the int64 labels."""
    labels = np.arange(G.order)
    while True:
        before = labels
        for move in G._inner:
            labels = np.minimum(labels, labels[move])
        labels = labels[labels]
        if np.array_equal(labels, before):
            break
    members = np.argsort(labels, kind="stable")
    _, starts = np.unique(labels[members], return_index=True)
    return [idxs.tolist() for idxs in np.split(members, starts[1:])]


def _check_against_tuples(degree, rows):
    """The generators kept from the rows, the chain, the enumeration and
    the classes against the tuple references."""
    ref, ref_kept = _TupleChain(degree), []
    for i, row in enumerate(map(tuple, rows.tolist())):
        if not ref.contains(row):
            ref_kept.append(i)
            ref.extend(row)
    kept, sifter = permgroup._stabilizer_chain(degree, rows, math.inf,
                                               math.inf)
    assert kept == ref_kept
    base, tables, transversals, radix = ref.tables()
    assert sifter.base.tolist() == base and sifter.radix == radix
    assert sifter.order == ref.order
    for (offset, term, flat), want in zip(sifter.tables, tables):
        assert [a.dtype for a in (offset, term, flat)] == [
            a.dtype for a in want]
        assert all(np.array_equal(a, b)
                   for a, b in zip((offset, term, flat), want))
    assert [(t.dtype, t.tolist()) for t in sifter.transversals] == [
        (t.dtype, t.tolist()) for t in transversals]
    gens = [rows[i] for i in kept]
    chain_of, elem_of, tree = permgroup._closure_rows(sifter, gens)
    want_chain_of, want_elem_of, want_tree = _tuple_closure(sifter, gens)
    assert np.array_equal(chain_of, want_chain_of)
    assert np.array_equal(elem_of, want_elem_of)
    assert tree[3] == want_tree[3]
    assert all(np.array_equal(a, b) for a, b in zip(tree[:3], want_tree[:3]))
    G = PermGroup(degree, [Perm(g) for g in gens], sifter)
    classes = G.conjugacy_classes()
    assert [cl.indices.tolist() for cl in classes] == _tuple_classes(G)
    class_of = G.class_of_array()
    assert not class_of.flags.writeable
    assert [class_of[cl.indices].tolist() for cl in classes] == [
        [k] * cl.size for k, cl in enumerate(classes)]


def _redundant_rows(G):
    # a product of the generators ahead of them, then the identity: the
    # product is kept and a later generator may be dropped
    gens = [g.images for g in G.generators]
    head = [_mul(gens[0], gens[-1])] if gens else []
    return np.array(head + gens + [tuple(range(G.degree))])


@PROPERTY
@example(group_from_generators(3, []))
@given(groups(8, 720))
def test_the_chain_matches_the_tuple_chain(G):
    _check_against_tuples(G.degree, _redundant_rows(G))


def test_the_chain_matches_the_tuple_chain_on_byte_keys_and_products():
    # the 300-point group sorts its keys as bytes; the product's base
    # stacks the factors'
    _check_against_tuples(300, _redundant_rows(_three_hundred_points()))
    S4 = group_from_generators(4, [Perm([1, 0, 2, 3]), Perm([1, 2, 3, 0])])
    D10 = group_from_generators(5, [Perm([1, 2, 3, 4, 0]),
                                    Perm([0, 4, 3, 2, 1])])
    _check_against_tuples(9, _redundant_rows(direct_product(S4, D10)))


# -- the sift against dict references ---------------------------------------


def _check_locate(G, rng):
    """locate on the base images of random products, in a shuffled order
    with repeats, against a dict of full rows."""
    E = _rows(G)
    index = _row_index(G)
    i, j = (np.array([rng.randrange(G.order) for _ in range(2 * G.order)])
            for _ in range(2))
    products = _compose(E[i], E[j])
    want = [index[tuple(r)] for r in products.tolist()]
    assert G.locate(products[:, G.base]).tolist() == want


def _check_lookup(G, rng):
    """lookup gives -1 for random rows outside the group, among them rows
    with a member's base images, and the index for the members among
    them."""
    E = _rows(G)
    index = _row_index(G)
    rows = [rng.sample(range(G.degree), G.degree) for _ in range(20)]
    # a member composed with a permutation t of the points off the base
    # has the member's base images; it is a member only when t is 1
    off_base = sorted(set(range(G.degree)) - set(G.base.tolist()))
    for _ in range(20):
        t = np.arange(G.degree)
        t[off_base] = rng.sample(off_base, len(off_base))
        rows.append(E[rng.randrange(G.order)][t].tolist())
    want = [index.get(tuple(r), -1) for r in rows]
    assert G.lookup(np.array(rows)).tolist() == want


@PROPERTY
@given(groups(7, 5040), st.randoms(use_true_random=False))
def test_locate_and_lookup_match_a_row_dict(G, rng):
    _check_locate(G, rng)
    _check_lookup(G, rng)


@PROPERTY
@given(groups(5, 60), groups(5, 60), st.randoms(use_true_random=False))
def test_locate_and_lookup_match_a_row_dict_on_products(G, H, rng):
    P = direct_product(G, H)
    _check_locate(P, rng)
    _check_lookup(P, rng)


@PROPERTY
@given(groups(7, 5040), st.randoms(use_true_random=False))
def test_images_read_off_the_chain_match_the_row_table(G, rng):
    # images of random points under random elements and their inverses,
    # one point list for all or one row per element, against the table
    # element_rows builds; then lookup and locate against a row dict
    E = _rows(G)
    inv = _inverses(E)
    elems = [rng.randrange(G.order) for _ in range(2 * G.order)]
    points = [rng.randrange(G.degree) for _ in range(rng.randrange(4))]
    per_element = np.array([[rng.randrange(G.degree) for _ in range(3)]
                            for _ in elems])
    assert G.images(elems, points).tolist() == E[elems][:, points].tolist()
    assert G.images(elems, points, inverse=True).tolist() == (
        inv[elems][:, points].tolist())
    assert G.images(elems, per_element).tolist() == _compose(
        E[elems], per_element).tolist()
    assert G.images(elems, per_element, inverse=True).tolist() == _compose(
        inv[elems], per_element).tolist()
    assert G.images(None, points).tolist() == E[:, points].tolist()
    assert G.images(None, points, inverse=True).tolist() == (
        inv[:, points].tolist())
    assert G.inverse_rows().tolist() == inv.tolist()
    assert np.array_equal(G.base_images, E[:, G.base])
    assert [G.element(i).images for i in elems] == [
        tuple(E[i].tolist()) for i in elems]
    assert np.array_equal(G.lookup(E), np.arange(G.order))
    _check_lookup(G, rng)
    _check_locate(G, rng)


def test_locate_and_lookup_match_a_row_dict_past_integer_keys():
    rng = random.Random(3)
    G = _three_hundred_points()
    _check_locate(G, rng)
    _check_lookup(G, rng)


@PROPERTY
@given(groups(6, 720), st.randoms(use_true_random=False))
def test_from_element_rows_picks_the_greedy_generators(G, rng):
    # rows of G in a random order, some of them: each generator is the
    # first row outside the set closure of the generators before it
    E = _rows(G)
    picks = rng.sample(range(G.order), rng.randrange(1, G.order + 1))
    rows = E[picks]
    gens, span = [], {tuple(range(G.degree))}
    for r in map(tuple, rows.tolist()):
        if r not in span:
            gens.append(r)
            span = _closure(gens)
    H = PermGroup.from_element_rows(G.degree, rows)
    assert [g.images for g in H.generators] == gens
    assert _element_set(H) == span
    # the same rule keeps the same rows as given generators
    F = PermGroup.from_generators(G.degree, [Perm(r) for r in rows.tolist()])
    assert [g.images for g in F.generators] == gens
    assert len(gens) <= math.log2(H.order)
    K = group_from_generators(G.degree, [Perm(g) for g in gens])
    assert np.array_equal(H.element_rows(), K.element_rows())
    assert np.array_equal(H.base, K.base)


# -- errors the index raises ------------------------------------------------


def test_index_of_a_non_member_raises():
    G = group_from_generators(4, [Perm([1, 2, 0, 3])])
    assert G.index_of(Perm([2, 0, 1, 3])) == 2
    assert G.lookup(np.array([[1, 0, 2, 3], [0, 1, 2, 3]])).tolist() == [-1, 0]
    with pytest.raises(NotAMember):
        G.index_of(Perm([1, 0, 2, 3]))
    with pytest.raises(NotAMember):
        G.index_of(Perm([1, 2, 0]))


def test_locating_a_non_member_raises():
    G = group_from_generators(4, [Perm([1, 2, 0, 3])])
    with pytest.raises(InvariantViolation):
        G.locate(np.full((1, len(G.base)), 3))  # point 3 is fixed


# -- pins recorded before the base index ------------------------------------

CORPUS_PINS = {
    "C2": ("d5e2d2ac07b741be58f6b9e50ede5fdcf16f3e8053ecef9350e7744b0d8bd90c",
           [(0, 1), (1, 1)]),
    "C3": ("21b6c798a9598add6e76fa908677bbdcff627f10aeae665bfd1859bf124b0d1b",
           [(0, 1), (1, 1), (2, 1)]),
    "C4": ("c8f4d95eaa39ad00b45609af41b180c761cd68c9afdab05b4c8d047af559bb04",
           [(0, 1), (1, 1), (2, 1), (3, 1)]),
    "V4": ("62d40abfb721c5a0c265c70a68d2e962d3f13be6480239c305f2f0bca8590440",
           [(0, 1), (1, 1), (2, 1), (3, 1)]),
    "S3": ("2608697e3a1037fbcd0c07a606772116f0f21f57002e4c1fdd3dd9da03488b23",
           [(0, 1), (1, 3), (2, 2)]),
    "D8": ("a2a62f7b9e3d97000eedd57b3ba51f3b2b561629c2ed3c008c7f25d03ae18a3d",
           [(0, 1), (1, 2), (2, 2), (3, 2), (4, 1)]),
    "Q8": ("13c39bc9f0e6c9a9f07e89a7aaf8784af22edad7a9f604fe82f1a541b830fef5",
           [(0, 1), (1, 2), (2, 2), (3, 1), (4, 2)]),
    "A4": ("cf2f382a9f27c2facce3883524fd8ba1ff3e1a247c402824065dfb92e3acc30c",
           [(0, 1), (1, 3), (2, 4), (4, 4)]),
    "S4": ("1f099d41b03a62893fa5ba1fae0b5ff4c16968624976cc503af70bcd6f730ceb",
           [(0, 1), (1, 6), (2, 6), (3, 8), (5, 3)]),
    "C2xS3": (
        "dbaaac117708837569c3b1e27cdaa585f3d1bd7d79436a5f89bc596ef74b9dbc",
        [(0, 1), (1, 3), (2, 2), (3, 1), (7, 3), (8, 2)]),
    "S3xS3": (
        "ee65cda0cc949b2e116b83bb7aa01613921e5f532b1a1b25e749865da80a1ad1",
        [(0, 1), (1, 3), (2, 2), (3, 3), (4, 2), (9, 9), (10, 6), (11, 6),
         (12, 4)]),
}


def test_corpus_elements_and_classes_pinned(corpus):
    for name, (sha, classes) in CORPUS_PINS.items():
        G = corpus[name]
        assert hashlib.sha256(G.element_rows().tobytes()).hexdigest() == sha
        assert [(int(cl.indices.min()), cl.size)
                for cl in G.conjugacy_classes()] == classes


@pytest.mark.stretch
def test_j1_classes_center_and_oracle_pinned():
    manifest = CorpusManifest.packaged()
    try:
        manifest.file_bytes(manifest.entry("J1"))
    except FileNotFoundError:
        pytest.skip("J1 generator file not packaged")
    G, _, _ = resolve_group("J1", allow_large=True)
    assert hashlib.sha256(G.element_rows().tobytes()).hexdigest() == (
        "9895184280622a2177ac9a17693f000fc27422f7fb511d987a977cba863b396a")
    classes = G.conjugacy_classes()
    assert [cl.size for cl in classes] == [
        1, 25080, 5852, 17556, 5852, 15960, 9240, 29260, 17556, 1463, 9240,
        9240, 5852, 11704, 11704]
    members = np.concatenate([cl.indices.astype("<i8") for cl in classes])
    assert hashlib.sha256(members.tobytes()).hexdigest() == (
        "ce4d974d812733f1bb4abb59fda51ca3560d5deffab230a5edea66f310466732")
    sc_int = center(G, field_make(2, 1)).sc_int
    assert hashlib.sha256(
        np.ascontiguousarray(sc_int, dtype="<i8").tobytes()).hexdigest() == (
        "5e9ec07ac6a0897d003b7e2ef944814eecc4fb82bbe9a4bcdeb05a1924728d84")
    assert additive_oracle(G, 2) == 7


@pytest.mark.stretch
def test_j1_chain_and_cayley_tree_pinned():
    # recorded when the chain ran on image tuples and the enumeration
    # sorted every new product's key stably
    manifest = CorpusManifest.packaged()
    try:
        manifest.file_bytes(manifest.entry("J1"))
    except FileNotFoundError:
        pytest.skip("J1 generator file not packaged")
    G, _, _ = resolve_group("J1", allow_large=True)
    assert G.base.tolist() == [0, 1, 2]
    assert [length for _, length in G._sifter.radix] == [266, 132, 5]
    _, parent, step, _ = G.cayley_tree
    assert [hashlib.sha256(np.ascontiguousarray(a, dtype).tobytes())
            .hexdigest() for a, dtype in ((G._chain_of, "<i8"),
                                          (parent, "<i4"), (step, "<i4"))] == [
        "3c761332da87fa13976ce8565ee7a59ac0b6e4e88a398059f0cf132669f5c82b",
        "9b8c911c5d68adb34b3c261e4dcda7caae82a1a915da025fc2c3ddc1cc1c08bf",
        "1178ea5a213833df803050f4ce1b8dac574780b591f0c7eefd4ef44d98dd8d0f"]


@pytest.mark.stretch
def test_j1_centralizer_p_ranks_pinned():
    # class by class; p = 2 and 3 recorded by the sifted right-multiplication
    # closure, the other primes by the `left_products` closure
    manifest = CorpusManifest.packaged()
    try:
        manifest.file_bytes(manifest.entry("J1"))
    except FileNotFoundError:
        pytest.skip("J1 generator file not packaged")
    G, _, _ = resolve_group("J1", allow_large=True)
    cents = [centralizer(G, cl.representative)
             for cl in G.conjugacy_classes()]
    ranks = {p: [p_rank_abelianization(C, p) for C in cents]
             for p in (2, 3, 5, 7, 11, 19)}
    assert ranks == {2: [0, 0, 1, 1, 1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 0],
                     3: [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 1],
                     5: [0, 0, 1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1],
                     7: [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                     11: [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                     19: [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0]}
    assert {p: sum(r) for p, r in ranks.items()} == {
        2: 7, 3: 4, 5: 6, 7: 1, 11: 1, 19: 3}


@pytest.mark.stretch
def test_j1_blocks_and_oracle_stay_below_64_mib():
    # a table of J1's element rows alone would take 89 MiB
    manifest = CorpusManifest.packaged()
    try:
        manifest.file_bytes(manifest.entry("J1"))
    except FileNotFoundError:
        pytest.skip("J1 generator file not packaged")
    tracemalloc.start()
    try:
        G, _, _ = resolve_group("J1", allow_large=True)
        blocks = block_decompose(group_algebra(G, 2, allow_large=True), G, 2)
        total = additive_oracle(G, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(blocks), total) == (7, 7)
    assert peak < 64 << 20


@pytest.mark.stretch
def test_j1_over_the_memory_cap_is_refused_before_enumeration(capsys,
                                                             monkeypatch):
    manifest = CorpusManifest.packaged()
    try:
        manifest.file_bytes(manifest.entry("J1"))
    except FileNotFoundError:
        pytest.skip("J1 generator file not packaged")

    def no_rows(*args):
        raise AssertionError("a row was enumerated")

    # the chain gives |J1| before any row is built: the enumeration, which
    # allocates and fills the rows, is never entered
    monkeypatch.setattr(permgroup, "_closure_rows", no_rows)
    code = main(["hh1", "--group", "J1", "--prime", "2"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: enumeration needs more than 33554432 bytes (175560 elements "
        "of degree 266); raise the memory cap (--allow-large) for stretch "
        "groups\n")


@pytest.mark.stretch
def test_printed_enumeration_size_is_what_the_cap_compares(capsys,
                                                           monkeypatch):
    manifest = CorpusManifest.packaged()
    try:
        manifest.file_bytes(manifest.entry("J1"))
    except FileNotFoundError:
        pytest.skip("J1 generator file not packaged")
    compared = []

    def recorded(*args):
        compared.append(size := enumeration_bytes(*args))
        return size

    monkeypatch.setattr(permgroup, "enumeration_bytes", recorded)
    resolve_group("J1", allow_large=True)
    assert capsys.readouterr().err == (
        f"J1: 175560 elements of degree 266, {compared[0] / (1 << 20):.0f} "
        "MiB against the memory cap\n")
    assert compared == [175560 * (266 * 2 + 4 * (2 + 2))]  # 92 MiB
