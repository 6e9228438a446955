"""render_document against the standard library's JSON encoder."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hh1lab import cli


def reference(value):
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


chars = st.one_of(st.characters(),
                  st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7f\u2028é€😀\ud800'))
strings = st.text(chars, max_size=8)
# what documents hold: no floats, and str keys only
scalars = st.one_of(st.none(), st.booleans(),
                    st.integers(-2 ** 200, 2 ** 200), strings)
trees = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(strings, children, max_size=4)),
    max_leaves=25)


@settings(max_examples=200, deadline=None)
@given(trees)
def test_render_document_equals_json_dumps(value):
    assert cli.render_document(value) == reference(value)


def cached(value):
    return cli.CachedDocument(value, reference(value)[:-1])


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(strings, trees, min_size=1, max_size=4),
       st.lists(st.tuples(st.sampled_from(["list", "dict"]), strings,
                          st.integers(0, 2)), max_size=3))
def test_cached_document_renders_as_its_plain_dict(doc, path):
    # the cached document sits at depth len(path), each level a list or an
    # object with siblings on either side
    plain, embedded = doc, cached(doc)
    for kind, key, before in path:
        if kind == "list":
            plain = [None] * before + [plain, "after"]
            embedded = [None] * before + [embedded, "after"]
        else:
            siblings = {f"{key}{i}": i for i in range(before)}
            plain = {**siblings, key: plain}
            embedded = {**siblings, key: embedded}
    assert cli.render_document(embedded) == reference(plain)


@pytest.mark.parametrize("value", [
    {1, 2}, object(), np.int64(3), np.bool_(True), [1, {"a": {2}}],
    {"a": 1, 2: 3}, {(1, 2): 3}])
def test_what_json_dumps_rejects_is_a_type_error(value):
    with pytest.raises(TypeError):
        reference(value)
    with pytest.raises(TypeError):
        cli.render_document(value)


@pytest.mark.parametrize("value", [
    {"x": [0.5]}, {"a": {1: "b"}}])
def test_floats_and_int_keys_are_a_type_error(value):
    # json.dumps renders both; no document holds either
    with pytest.raises(TypeError):
        cli.render_document(value)


def test_cached_document_is_read_only():
    doc = cached({"kind": "hh1", "n": 1})
    for mutate in (lambda d: d.__setitem__("n", 2),
                   lambda d: d.__delitem__("n"), lambda d: d.pop("n"),
                   lambda d: d.update(n=2), lambda d: d.setdefault("m", 0),
                   lambda d: d.clear(), lambda d: d.popitem()):
        with pytest.raises(TypeError):
            mutate(doc)
    assert doc == {"kind": "hh1", "n": 1}


def test_cache_round_trip_keeps_the_text():
    doc = {"schema_version": cli.SCHEMA_VERSION, "kind": "hh1",
           "blocks": [{"dim": 2, "hh1_dim": None}], "name": "xé",
           "verdicts": {"counterexamples": []}, "consistency": {},
           "totals": {"hh1_total": 0}}
    put = cli.cache_put("k", doc)
    got = cli.cache_get("k")
    assert put == got == doc
    assert put.text == got.text == reference(doc)[:-1]
    assert cli.render_document(got) == reference(doc)
    assert cli.render_document([got]) == reference([doc])
