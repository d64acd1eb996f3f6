"""Closures and collections against the recursive facet walk and the
brute-force partition of ``conftest``, and on a chain deeper than Python's
recursion limit.

``closure`` and ``collections`` walk the facet records on demand; the oracle
recurses over them and joins same-value cells pairwise.  They must agree on
every cell's closure and on the whole partition, on both corpora, on the
CW complexes with irregular records and on every order type of the minimal
complexes.
"""

import pytest

from conftest import closure_partition, facet_closure
from data.make_golden import irregular_cw
from morsebott import DiscreteFunction, build_from_incidence, closure, collections, validate
from morsebott.cli import run
from morsebott.io import MAX_DIM, serialize_complex, serialize_function
from test_order_types import MORSE_BOTT, build, order_types


def assert_matches_oracle(X, functions):
    for cid in X.ids():
        assert closure(X, {cid}) == facet_closure(X, cid)
    for f in functions:
        found = collections(X, f)
        assert [C.id for C in found] == list(range(len(found)))
        assert [(C.value, C.cells) for C in found] == closure_partition(X, f)


def test_mb_corpus(mb_corpus):
    for X, f in mb_corpus:
        assert_matches_oracle(X, [f])


def test_dm_corpus(dm_corpus):
    for X, f in dm_corpus:
        assert_matches_oracle(X, [f])


@pytest.mark.parametrize("name", ["rp2-cw", "torus-cw"])
def test_irregular_cw(name):
    inputs = [(X, f) for case, X, f in irregular_cw() if case.startswith(name)]
    assert len(inputs) == 40
    assert_matches_oracle(inputs[0][0], [f for _, f in inputs])


@pytest.mark.parametrize("name", sorted(MORSE_BOTT))
def test_every_order_type(name):
    X = build(name)
    assert_matches_oracle(X, order_types(X.ids()))


def deep_chain():
    """One cell in each dimension 0..MAX_DIM, each on the one below it by an
    irregular record of incidence 0."""
    return build_from_incidence(
        [(f"c{k}", k) for k in range(MAX_DIM + 1)],
        [(f"c{k}", f"c{k - 1}", 0, False) for k in range(1, MAX_DIM + 1)],
    )


def test_deep_chain_walks():
    # Deeper than the recursion limit, so each walk must be iterative.
    X = deep_chain()
    assert validate(X).ok
    assert closure(X, {f"c{MAX_DIM}"}) == frozenset(X.ids())
    assert len(X) == MAX_DIM + 1 == 1025
    assert [C.cells for C in collections(X, DiscreteFunction.constant(X))] == [
        frozenset(X.ids())
    ]


def test_deep_chain_report(tmp_path, capsys):
    X = deep_chain()
    complex_file, function_file = tmp_path / "chain.cw", tmp_path / "chain.val"
    complex_file.write_text(serialize_complex(X))
    function_file.write_text(serialize_function(DiscreteFunction.by_dimension(X), X))
    assert run(["report", str(complex_file), str(function_file)]) == 0
    assert capsys.readouterr().err == ""
