"""Per-block HH^1 read off the one cocycle solve of kG.

`hh1_blocks` solves for the cocycles of kG once and lets each block's
Galois-orbit sum act on them.  The reference here is the independent
route: build the block algebra kGb on its own basis and solve its Leibniz
system.  Both must give the same value on every block, for the corpus, for
cyclic groups whose blocks come in Galois orbits of more than one block,
and for generated groups, and the whole-algebra total must equal the
general Leibniz solve and the centralizer-sum oracle.
"""

import pytest
from hypothesis import given, strategies as st

from conftest import CORPUS_NAMES
from hh1lab.groupalgebra import block_algebra, block_decompose, group_algebra
from hh1lab.hhone import additive_oracle, derivation_space, hh1_blocks
from hh1lab.permgroup import Perm, group_from_generators
from test_permindex import PROPERTY, groups

PRIMES = (2, 3, 5)


def _block_route(G, p):
    """HH^1 of each block algebra, solved one by one."""
    A = group_algebra(G, p)
    return [derivation_space(block_algebra(A, b)).hh1_dim
            for b in block_decompose(A, G, p)]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_projection_equals_block_solve_on_the_corpus(corpus, name, p):
    G = corpus[name]
    rep = hh1_blocks(G, p, name=name, run_oracle=False)
    assert [r.hh1_dim for r in rep.per_block] == _block_route(G, p)


@pytest.mark.parametrize("k,p,field_degree,values", [
    (6, 2, 2, [2, 2, 2]), (15, 5, 2, [5, 5, 5])])
def test_blocks_in_galois_orbits(k, p, field_degree, values):
    # kC6 at 2 and kC15 at 5 split over GF(p^2), where two of the three
    # blocks are Frobenius conjugates
    G = group_from_generators(k, [Perm([(i + 1) % k for i in range(k)])])
    assert group_algebra(G, p).field.m == field_degree
    rep = hh1_blocks(G, p, run_oracle=False)
    assert [r.hh1_dim for r in rep.per_block] == values == _block_route(G, p)


@PROPERTY
@given(G=groups(5, 12), p=st.sampled_from(PRIMES))
def test_projection_equals_block_solve_on_generated_groups(G, p):
    rep = hh1_blocks(G, p, run_oracle=False)
    assert [r.hh1_dim for r in rep.per_block] == _block_route(G, p)
    whole = derivation_space(group_algebra(G, p)).hh1_dim
    assert rep.total_hh1 == whole == additive_oracle(G, p)
