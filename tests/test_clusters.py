import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisim.clusters import analyze_cluster, orbit
from noisim.pauli import PauliString, identity, multiply, parse

from helpers import orbit_bfs


def test_two_member_orbit():
    members = orbit("XZ", ["XX"])
    assert {s.text for s in members} == {"XZ", "IY"}


def test_all_to_all_cluster():
    c = analyze_cluster("YI", ["XX", "YY", "ZZ"])
    assert {s.text for s in c.members} == {"YI", "ZX", "XZ", "IY"}
    assert c.branching_dimension == 3
    assert c.cluster_dimension == 4
    assert c.all_to_all
    assert c.leakage_entropy == 0.0


def test_partial_cluster_leaks():
    c = analyze_cluster("YI", ["XX", "ZZ"])
    assert c.branching_dimension == 2
    assert c.cluster_dimension == 4
    assert not c.all_to_all
    assert c.leakage_entropy == pytest.approx(math.log(4 / 3))


def test_identity_images_are_not_branches():
    # the node is in the generator set, so one image is the identity string
    c = analyze_cluster("XZ", ["XZ", "XX"])
    assert c.branching_dimension == 1
    assert parse("II") in c.members


def test_orbit_rejects_size_mismatch():
    with pytest.raises(ValueError):
        orbit("XZ", ["X"])


strings2 = st.text(alphabet="IXYZ", min_size=2, max_size=2)


@given(strings2, st.lists(strings2, min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_orbit_is_closed(node, generators):
    members = orbit(node, generators)
    assert parse(node) in members
    for s in members:
        for g in generators:
            assert multiply(parse(g), s).string in members


@st.composite
def orbit_cases(draw):
    """A node and up to 8 generators on 1-6 qubits, drawn from a small pool
    so that repeats and dependent sets are common; the identity, the node
    and products of pool strings are mixed in. Either side may be text."""
    n = draw(st.integers(1, 6))
    strings = st.builds(
        lambda x, z: PauliString(n, x, z), st.integers(0, 2**n - 1), st.integers(0, 2**n - 1)
    )
    node = draw(strings)
    pool = draw(st.lists(strings, min_size=1, max_size=4))
    extra = [identity(n), node, *(multiply(a, b).string for a in pool for b in pool)]
    generators = draw(st.lists(st.sampled_from(pool + extra), max_size=8))
    text = draw(st.booleans())
    return node, generators, text


@given(orbit_cases())
@settings(max_examples=300, deadline=None)
def test_orbit_matches_bfs_oracle(case):
    node, generators, text = case
    args = (node.text, [g.text for g in generators]) if text else (node, generators)
    expected = orbit_bfs(node, generators)
    assert orbit(*args) == expected
    cluster = analyze_cluster(*args)
    assert cluster.members == expected
    assert cluster.cluster_dimension == len(expected)
    images = {multiply(g, node).string for g in generators} - {node, identity(node.n_qubits)}
    assert cluster.branching_dimension == len(images)
    assert cluster.all_to_all == (len(expected) == len(images) + 1)
    assert cluster.leakage_entropy == math.log(len(expected) / (len(images) + 1))


@st.composite
def wide_orbit_cases(draw):
    """A node and up to 8 generators on 1-40 qubits, so that the packed
    x | z << n can pass 64 bits. The generators repeat a pool of up to 5
    strings and the identity; none, or only identities, give rank 0."""
    n = draw(st.integers(1, 40))
    strings = st.builds(
        lambda x, z: PauliString(n, x, z), st.integers(0, 2**n - 1), st.integers(0, 2**n - 1)
    )
    node = draw(strings)
    pool = draw(st.lists(strings, max_size=5))
    generators = draw(st.lists(st.sampled_from([identity(n), *pool]), max_size=8))
    return node, generators


@given(wide_orbit_cases())
@settings(max_examples=200, deadline=None)
def test_member_texts_spell_the_sorted_orbit(case):
    node, generators = case
    cluster = analyze_cluster(node, generators)
    expected = orbit_bfs(node, generators)
    assert list(cluster.member_texts) == sorted(s.text for s in expected)
    assert list(cluster.member_texts) == sorted(s.text for s in cluster.members)
    assert cluster.members == expected
