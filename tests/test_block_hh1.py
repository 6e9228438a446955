"""Per-block HH^1 read off the one cocycle solve of kG.

`hh1_blocks` solves for the cocycles of kG once and lets each block's
Galois-orbit sum act on them.  The reference here is the independent
route: build the algebra F_pG e_O of each orbit O on its own basis and
solve its Leibniz system.  HH^1 commutes with extending the field, and
F_pG e_O becomes the product of the |O| blocks of O, so the reference
gives |O| HH^1(B) for each block B of O.  Both must agree on every block,
for the corpus, for cyclic groups whose blocks come in Galois orbits of
more than one block, and for generated groups, and the whole-algebra
total must equal the general Leibniz solve and the centralizer-sum oracle.
"""

import pytest
from hypothesis import given, strategies as st

from conftest import CORPUS_NAMES
from hh1lab.groupalgebra import (block_algebra, block_decompose,
                                 field_degree, group_algebra)
from hh1lab.hhone import additive_oracle, derivation_space, hh1_blocks
from hh1lab.permgroup import Perm, group_from_generators
from test_permindex import PROPERTY, groups

PRIMES = (2, 3, 5)


def _block_route(G, p):
    """Per block B of an orbit O, in block order: |O| HH^1(B) as dim HH^1
    of F_pG e_O, solved once per orbit."""
    A = group_algebra(G, p)
    solved = {}
    for b in block_decompose(A, G, p):
        if b.idempotent_class_coords not in solved:
            solved[b.idempotent_class_coords] = derivation_space(
                block_algebra(A, b)).hh1_dim
        yield solved[b.idempotent_class_coords]


def _projection_route(G, p):
    """Per block, |O| times its HH^1 from `hh1_blocks`."""
    rep = hh1_blocks(G, p, run_oracle=False)
    blocks = block_decompose(group_algebra(G, p), G, p)
    return [r.hh1_dim * b.orbit_size for r, b in zip(rep.per_block, blocks)]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_projection_equals_block_solve_on_the_corpus(corpus, name, p):
    G = corpus[name]
    assert _projection_route(G, p) == list(_block_route(G, p))


@pytest.mark.parametrize("k,p,ell,values", [
    (6, 2, 2, [2, 2, 2]), (15, 5, 2, [5, 5, 5])])
def test_blocks_in_galois_orbits(k, p, ell, values):
    # kC6 at 2 and kC15 at 5 split over GF(p^2), where two of the three
    # blocks are Frobenius conjugates
    G = group_from_generators(k, [Perm([(i + 1) % k for i in range(k)])])
    blocks = block_decompose(group_algebra(G, p), G, p)
    assert [b.orbit_size for b in blocks] == [1, 2, 2]
    assert field_degree(blocks) == ell
    rep = hh1_blocks(G, p, run_oracle=False)
    assert [r.hh1_dim for r in rep.per_block] == values
    assert _projection_route(G, p) == list(_block_route(G, p)) == [
        v * b.orbit_size for v, b in zip(values, blocks)]


@PROPERTY
@given(G=groups(5, 12), p=st.sampled_from(PRIMES))
def test_projection_equals_block_solve_on_generated_groups(G, p):
    rep = hh1_blocks(G, p, run_oracle=False)
    assert _projection_route(G, p) == list(_block_route(G, p))
    whole = derivation_space(group_algebra(G, p)).hh1_dim
    assert rep.total_hh1 == whole == additive_oracle(G, p)
