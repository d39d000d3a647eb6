"""Property tests on random small groups: element identity decided on base
points agrees with whole image tuples, and a stabilizer chain built at a
proven order bound is the chain built without one.

The groups have degree at most 8 and come from one to three random
permutations.  Each generator preserves a random split of the points into
two blocks, so many groups are intransitive; a generator is dropped from
the end until the group has at most ``MAX_ORDER`` elements, so the checks
over every pair stay cheap.  Each property runs on the group itself, on a
handle from ``subgroup_from_elements`` (the centralizer of a random element)
and on a ``Subgroup`` child of that handle.  The properties of the
commutator filter, of the abelianization count and of the d bracket draw
direct products instead (see ``groups``), which reach non-abelian groups
of order 16 and more.  The runs are derandomized, so every run draws the
same groups.
"""

import pytest
from hypothesis import given, settings, strategies as st

from centerbound import structure
from centerbound.arith import is_prime_power
from centerbound.corpus import direct_product
from centerbound.group import (DEFAULT_ENUMERATION_CAP, DEFAULT_SUBGROUP_CAP,
                               Group, Subgroup, _schreier_sims,
                               subgroup_from_elements)
from centerbound.perm import Perm, commute
from centerbound.rank import (_abelianization_d, _lattice, abelian_rank,
                             d_bracket)
from centerbound.structure import (_commutes_into_center, _cosets,
                                   by_center_cosets, center, centralizer,
                                   derived_subgroup, quotient, sylow,
                                   zed_subgroup)
from centerbound.table import _Perms, _table

from _oracles import (abelianization_d_oracle, center_oracle,
                      centralizer_oracle, closure, commutes_into_oracle,
                      lattice_oracle, min_generators_oracle)

MAX_ORDER = 200
DEFAULTS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=100)


@st.composite
def _perm_on_blocks(draw, degree: int, split: int) -> Perm:
    """A random permutation of 1..degree mapping {1..split} to itself."""
    low = draw(st.permutations(range(1, split + 1)))
    high = draw(st.permutations(range(split + 1, degree + 1)))
    return Perm(list(low) + list(high))


def _generated(draw, max_order: int, least: int = 1) -> Group:
    """A group of at most max_order elements on least to 8 points, drawn
    with groups' draw."""
    degree = draw(st.sampled_from(range(least, 9)))
    split = draw(st.one_of(st.just(degree),
                           st.sampled_from(range(1, degree + 1))))
    gens = draw(st.lists(_perm_on_blocks(degree, split),
                         min_size=1, max_size=3))
    G = Group(degree, gens)
    while G.order() > max_order:
        gens = gens[:-1]
        G = Group(degree, gens)
    return G


@st.composite
def groups(draw, max_order: int = MAX_ORDER,
           products: bool = False) -> Group:
    """A random group of at most max_order elements, a handle on it, or a
    child of that handle.  Most such groups are tiny and abelian.  With
    products the group is the direct product of the Sylow 2-subgroup of
    one group on 4 to 8 points (D4 for S4 and S5, D4 x C2 for S6 and S7)
    and a second group on 4 to 8 points, small enough for the product to
    have at most max_order elements: such products are often non-abelian
    of order 16 or more, or have G' n Z(G) strictly between 1 and Z(G)."""
    if products:
        left = sylow(_generated(draw, max_order, 4), 2)
        G = direct_product(left,
                           _generated(draw, max_order // left.order(), 4))
    else:
        G = _generated(draw, max_order)
    kind = draw(st.sampled_from(["group", "handle", "child"]))
    if kind == "group":
        return G
    x = G.elements()[draw(st.integers(0, G.order() - 1))]
    H = subgroup_from_elements(
        G, [g for g in G.elements() if g * x == x * g])
    if kind == "handle":
        return H
    return Subgroup(H, [x])


def _numbering(G: Group, zset: set) -> list[int]:
    """Coset numbers of G's elements in G's element order, numbered by first
    appearance, from whole Perms."""
    number: dict[Perm, int] = {}
    count = 0
    for g in G.elements():
        if g not in number:
            number.update((g * z, count) for z in zset)
            count += 1
    return [number[g] for g in G.elements()]


@DEFAULTS
@given(groups())
def test_commute_on_points_agrees_with_products(G):
    points = G.points()
    elems = G.elements()
    assert [commute(a, b, points) for a in elems for b in elems] == \
        [a * b == b * a for a in elems for b in elems]


@DEFAULTS
@given(groups())
def test_keyed_center_cosets_match_a_whole_tuple_numbering(G):
    zset = center_oracle(G.elements())
    assert set(center(G).elements()) == zset
    cosets = _cosets(G, center(G), 10 ** 6)
    assert len(cosets) == G.order()
    assert list(cosets.values()) == _numbering(G, zset)


@DEFAULTS
@given(groups())
def test_projection_matches_the_whole_tuple_projection(G):
    for N in (center(G), derived_subgroup(G)):
        if N.order() == 1:
            continue  # G is its own quotient: projection is the identity
        pres = quotient(G, N)
        blocks = pres._blocks
        block_of = {x: c for c, block in enumerate(blocks) for x in block}
        for g in G.elements():
            assert pres.projection(g)._img == tuple(
                block_of[block[0] * g] for block in blocks)


@DEFAULTS
@given(groups(products=True), st.data())
def test_the_commutator_filter_is_the_brute_force_set(G, data):
    """The Z2/D filter on a random X in G keeps {g | [g, X] <= N} both for
    N = Z(G) and for N = G' n Z(G), the set the T/M construction's M is."""
    elems = G.elements()
    X = data.draw(st.lists(st.sampled_from(elems), max_size=3))
    select = _commutes_into_center(G, X, 10 ** 6)
    passed = set(select(elems))
    assert set(by_center_cosets(G, select, 10 ** 6)) == passed
    for N in (center(G), zed_subgroup(G)):
        assert passed == commutes_into_oracle(elems, X, N.elements())


@DEFAULTS
@given(groups(products=True), st.data())
def test_centralizer_filters_one_generator_at_a_time(G, data):
    """C_G(S) is the brute-force set for any S in G of 0-3 elements, in G's
    element order whatever S's order.  It asks commute once per Z(G)-coset
    representative still alive before each s of S in turn."""
    elems = G.elements()
    S = data.draw(st.lists(st.sampled_from(elems), max_size=3))
    shuffled = data.draw(st.permutations(S))
    zent = center(G).element_set()
    reps, seen = [], set()
    for g in elems:
        if g not in seen:
            reps.append(g)
            seen.update(g * z for z in zent)
    expected = 0
    for s in S:
        expected += len(reps)
        reps = [g for g in reps if g * s == s * g]
    calls = []
    real = structure.commute
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(structure, "commute",
                      lambda *args: calls.append(1) or real(*args))
        C = centralizer(G, S)
    assert len(calls) == expected
    assert set(C.elements()) == centralizer_oracle(elems, S)
    assert C.elements() == centralizer(G, shuffled).elements()


def _chain_data(levels) -> list:
    return [(level.point, level.gens, list(level.images.items()))
            for level in levels]


@DEFAULTS
@given(groups(), st.integers(1, 4))
def test_a_chain_at_an_order_bound_is_the_unbounded_chain(G, multiple):
    """At the true order the chain stops verifying early; at a proper
    multiple of it the product never reaches the bound and every Schreier
    generator is tested.  Both give the chain built with no bound."""
    unbounded = _chain_data(_schreier_sims(G.degree, G.generators))
    assert _chain_data(_schreier_sims(
        G.degree, G.generators, G.order() * multiple)) == unbounded


@DEFAULTS
@given(groups(), st.integers(2, 4))
def test_a_known_order_too_large_raises(G, multiple):
    H = Group(G.degree, G.generators, order=G.order() * multiple)
    with pytest.raises(AssertionError):
        H.build_bsgs()


@DEFAULTS
@given(groups(max_order=64))
def test_the_lattice_is_every_subgroup_one_representative_per_class(G):
    """_lattice's subgroups are the oracle's, each with generators of
    itself, and the classes of its representatives split them."""
    idx, found, reps = _lattice(G, DEFAULT_SUBGROUP_CAP,
                                DEFAULT_ENUMERATION_CAP)
    elems = idx.elems
    subgroups = {frozenset(elems[i] for i in hset): [elems[i] for i in gens]
                 for hset, gens in found.items()}
    assert set(subgroups) == lattice_oracle(G.elements())
    for hset, gens in subgroups.items():
        assert closure(G.degree, gens) == hset
    inverses = [(h.inverse(), h) for h in G.elements()]
    classes = [{frozenset(hinv * x * h for x in rep) for hinv, h in inverses}
               for rep in (frozenset(elems[i] for i in r) for r in reps)]
    assert sum(map(len, classes)) == len(set().union(*classes)) == \
        len(subgroups)


@DEFAULTS
@given(groups(products=True))
def test_the_abelianization_closures_match_the_brute_force_count(G):
    """_abelianization_d takes log_p |G : G'G^p| from closures, in either
    world; the oracle counts the x with x^p in G' over G's element list."""
    expected = abelianization_d_oracle(G.degree, G.generators)
    table = _table(G, DEFAULT_ENUMERATION_CAP)
    assert _abelianization_d(table, frozenset(range(table.n)),
                             table.gens) == expected
    perms = _Perms(G)
    assert _abelianization_d(perms, G, G.generators) == expected
    for A in (G, center(G), zed_subgroup(G)):
        if A.is_abelian():
            assert abelian_rank(A) == abelianization_d_oracle(
                A.degree, A.generators)


@DEFAULTS
@given(groups(products=True))
def test_the_d_bracket_holds_d(G):
    """d_bracket's lo <= d(G) <= hi against exhaustive search, and closed
    at the abelianization count on abelian groups and p-groups."""
    lo, hi = d_bracket(G)
    elems = closure(G.degree, G.generators)
    assert lo <= min_generators_oracle(G.degree, elems) <= hi
    if G.is_abelian() or is_prime_power(G.order()) is not None:
        assert lo == hi == abelianization_d_oracle(G.degree, G.generators)
