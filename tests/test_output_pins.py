"""The rendered `blocks` and `hh1` documents, pinned byte for byte.

Each digest is one sha256 over the concatenated rendered documents of a
fixed list of inputs, so any change in a block row, its order, its count
or `inputs.field_degree` shows.  The cyclic groups have Galois orbits of
more than one block (C19 at 2: two orbits of nine); `hh1` documents lose
their `timings`, which are wall-clock readings.
"""

import hashlib

import pytest

from conftest import CORPUS_NAMES
from hh1lab import cli
from hh1lab.permgroup import Perm, group_from_generators

# (n, p): C_n at p, each under --allow-large
CYCLIC_BLOCKS = [(6, 2), (11, 2), (13, 5), (15, 5), (19, 2)]
CYCLIC_HH1 = [(6, 2), (13, 5), (15, 5)]
J1_PRIMES = (2, 3, 5, 7, 11, 19)


def cyclic(n):
    return group_from_generators(n, [Perm([(i + 1) % n for i in range(n)])])


def digest(docs):
    h = hashlib.sha256()
    for doc in docs:
        h.update(cli.render_document(doc).encode())
    return h.hexdigest()


def test_blocks_documents_are_pinned(corpus):
    docs = [cli.compute_blocks_doc(name, corpus[name], p, 0, False)
            for name in CORPUS_NAMES for p in (2, 3, 5)]
    docs += [cli.compute_blocks_doc(f"C{n}", cyclic(n), p, 0, True)
             for n, p in CYCLIC_BLOCKS]
    assert digest(docs) == (
        "b8d0bb354d92c801071505ec7f90c11ca3084ee9b1bf3c6488d3d0f67a96101c")


def test_hh1_documents_of_galois_orbits_are_pinned():
    docs = []
    for n, p in CYCLIC_HH1:
        doc = cli.compute_hh1_doc(f"C{n}", cyclic(n), p, "both", 0, True)
        del doc["timings"]
        docs.append(doc)
    assert digest(docs) == (
        "f2ab7d36c041332bd342e3f89a2583f52dea476cd32d6e10594363ecd8a1b496")


@pytest.mark.stretch
def test_j1_blocks_documents_are_pinned():
    manifest = cli.CorpusManifest.packaged()
    try:
        manifest.file_bytes(manifest.entry("J1"))
    except FileNotFoundError:
        pytest.skip("J1 generator file not packaged")
    G, _, name = cli.resolve_group("J1", allow_large=True)
    docs = [cli.compute_blocks_doc(name, G, p, 0, True) for p in J1_PRIMES]
    assert digest(docs) == (
        "034b51ba9194f44bc0ad6930384ef409e5057252bc4833eea2a87435edc8796a")
