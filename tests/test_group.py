"""The BSGS kernel against exhaustive-closure oracles."""

import hashlib
import json
import random

import pytest

from centerbound.arith import prime_factors
from centerbound.corpus import build_group, default_corpus, parse_group_spec
from centerbound.errors import CapExceeded, DegreeMismatch
from centerbound import group
from centerbound.group import (Group, Subgroup, _schreier_sims,
                               subgroup_from_elements)
from centerbound.perm import Perm, identity, parse_perm
from centerbound.structure import (center, centralizer, dee_subgroup,
                                   derived_subgroup, quotient_by_center,
                                   second_center, sylow, zed_subgroup)

from _oracles import closure

SMALL_GROUPS = {
    "sym4": (4, ["(1 2)", "(1 2 3 4)"], 24),
    "alt5": (5, ["(1 2 3)", "(3 4 5)"], 60),
    "sym3": (3, ["(1 2)", "(1 2 3)"], 6),
    "dih4": (4, ["(1 2 3 4)", "(1 3)"], 8),
    "cyc5": (5, ["(1 2 3 4 5)"], 5),
    "klein": (4, ["(1 2)(3 4)", "(1 3)(2 4)"], 4),
    "trivial": (5, [], 1),
    "sym3_skew_gens": (3, ["(1 2)", "(2 3)"], 6),
    "alt4": (4, ["(1 2 3)", "(2 3 4)"], 12),
    "dih6_on_6": (6, ["(1 2 3 4 5 6)", "(2 6)(3 5)"], 12),
}


def build(name):
    degree, gens, _ = SMALL_GROUPS[name]
    return Group(degree, [parse_perm(s, degree) for s in gens])


@pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
def test_order_matches_closure(name):
    degree, gens, expected = SMALL_GROUPS[name]
    G = build(name)
    assert G.order() == expected
    assert len(closure(degree, G.generators)) == expected


@pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
def test_membership_matches_closure(name):
    degree, _, _ = SMALL_GROUPS[name]
    G = build(name)
    members = closure(degree, G.generators)
    for p in members:
        assert G.contains(p)
    rng = random.Random(name)
    for _ in range(50):
        images = list(range(1, degree + 1))
        rng.shuffle(images)
        p = Perm(images)
        assert G.contains(p) == (p in members)


@pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
def test_elements_each_exactly_once(name):
    degree, _, expected = SMALL_GROUPS[name]
    G = build(name)
    elems = G.elements()
    assert len(elems) == expected
    assert len(set(elems)) == expected
    assert set(elems) == closure(degree, G.generators)


def test_identity_always_contained():
    for name in SMALL_GROUPS:
        G = build(name)
        assert G.contains(identity(G.degree))


def test_alt4_excludes_transposition():
    G = build("alt4")
    assert not G.contains(parse_perm("(1 2)", 4))
    assert G.contains(parse_perm("(1 2)(3 4)", 4))


def test_sym3_contains_transposition():
    assert build("sym3").contains(parse_perm("(1 3)", 3))


def test_elements_deterministic_order():
    a = build("sym4").elements()
    b = build("sym4").elements()
    assert a == b


def test_bsgs_idempotent():
    G = build("alt5")
    G.build_bsgs()
    first = G.order()
    G.build_bsgs()
    assert G.order() == first


def test_trivial_group_and_degree_zero():
    assert Group(0).order() == 1
    assert Group(0).elements() == (identity(0),)
    assert build("trivial").elements() == (identity(5),)


def test_enumeration_cap_is_loud():
    degree = 9
    G = Group(degree, [parse_perm("(1 2)", degree),
                       parse_perm("(1 2 3 4 5 6 7 8 9)", degree)])
    with pytest.raises(CapExceeded) as exc:
        G.elements(cap=1000)
    assert exc.value.value == 362880
    assert exc.value.limit == 1000


def test_generator_degree_checked():
    with pytest.raises(DegreeMismatch):
        Group(4, [parse_perm("(1 2)", 3)])
    G = build("sym3")
    with pytest.raises(DegreeMismatch):
        G.contains(parse_perm("(1 2)", 4))


def test_random_element_uniform_and_seeded():
    G = build("sym3")
    rng = random.Random("seed")
    draws = [G.random_element(rng) for _ in range(3000)]
    assert all(G.contains(p) for p in draws)
    counts = {}
    for p in draws:
        counts[p] = counts.get(p, 0) + 1
    assert len(counts) == 6
    assert min(counts.values()) > 350  # roughly uniform over 6 elements
    rng2 = random.Random("seed")
    assert draws[:10] == [G.random_element(rng2) for _ in range(10)]


def test_subgroup_handle_checks_parent_membership():
    G = build("sym4")
    H = Subgroup(G, [parse_perm("(1 2 3)", 4)])
    assert H.order() == 3
    assert H.parent is G
    with pytest.raises(ValueError):
        Subgroup(build("alt4"), [parse_perm("(1 2)", 4)])


def test_subgroup_order_divides_parent():
    G = build("sym4")
    for gens in (["(1 2)"], ["(1 2 3)"], ["(1 2)(3 4)", "(1 3)(2 4)"]):
        H = Subgroup(G, [parse_perm(s, 4) for s in gens])
        assert G.order() % H.order() == 0


def test_subgroup_from_elements_reduces_generators():
    G = build("sym4")
    rotations = sorted(closure(4, [parse_perm("(1 2 3 4)", 4)]))
    H = subgroup_from_elements(G, rotations)
    assert H.order() == 4
    assert len(H.generators) <= 2
    assert set(H.elements()) == set(rotations)


def test_subgroup_from_elements_whole_group_shortcut():
    G = build("dih4")
    H = subgroup_from_elements(G, list(G.elements()))
    assert H.order() == 8
    assert H.generators == G.generators


@pytest.mark.parametrize("elems", [
    ["()", "(1 2)", "(3 4)"],  # generates the Klein group of order 4
    ["()", "(1 2)", "(1 2)", "(3 4)"],  # a repeat, and (1 2)(3 4) missing
    # S3 on 1..3 is closed after (1 3), before (1 4) is read
    ["()", "(1 2)", "(1 3)", "(2 3)", "(1 2 3)", "(1 4)"],
    ["(1 2)", "()"] * 12,  # as long as S4, with repeats
])
def test_subgroup_from_elements_refuses_a_non_subgroup(elems):
    G = build("sym4")
    with pytest.raises(AssertionError):
        subgroup_from_elements(G, [parse_perm(s, 4) for s in elems])


def test_subgroup_from_elements_builds_no_chain(monkeypatch):
    G = build_group(parse_group_spec("family:symmetric(5)")).build_bsgs()
    builds = []
    real = group._schreier_sims
    monkeypatch.setattr(group, "_schreier_sims",
                        lambda *args: builds.append(args) or real(*args))
    H = centralizer(G, [parse_perm("(1 2)", 5)])
    assert builds == []
    assert H.order() == 12
    # its chain, when asked for, is built at the handle's known order
    H.build_bsgs()
    assert [args[2] for args in builds] == [12]


def test_a_regular_quotient_tests_no_schreier_generator(monkeypatch):
    """Level 0's orbit of a regular action is every point, so its product
    reaches the known order as soon as the orbit is built: the gathers are
    the orbit's breadth-first search, one per point but the base point."""
    G = build_group(parse_group_spec("family:direct_product("
                                     "symmetric(4),heisenberg(3))"))
    Q = quotient_by_center(G).quotient
    assert Q._levels is None and Q.order() == 216
    gathers = []
    real = group.gather
    monkeypatch.setattr(group, "gather",
                        lambda img, by: gathers.append(1) or real(img, by))
    assert len(Q._chain()) == 1
    assert len(gathers) == Q.degree - 1


def test_a_wrong_exact_order_raises():
    degree, gens, order = SMALL_GROUPS["alt5"]
    perms = [parse_perm(s, degree) for s in gens]
    with pytest.raises(AssertionError):
        Group(degree, perms, order=2 * order).build_bsgs()
    # a multiple of a handle's order from its parent is only a bound
    assert Subgroup(Group(degree, perms, order=order), perms[:1]).order() == 3


def _chain_data(levels) -> list:
    return [(level.point, level.gens, list(level.images.items()))
            for level in levels]


def test_base_points_are_one_based():
    G = build("sym3")
    assert all(1 <= b <= 3 for b in G.base)


def test_handle_points_are_the_ambient_base():
    # a base of G is a base of every subgroup, so a handle reads its points
    # from its parent and builds no chain of its own for them
    G = build("sym4")
    points = tuple(b - 1 for b in G.base)
    # G's own element list in G's order is G; sorted, it is a new handle
    # that lists the elements in the order given
    assert subgroup_from_elements(G, list(G.elements())) is G
    ordered = sorted(G.elements())
    whole = subgroup_from_elements(G, ordered)
    assert whole is not G and list(whole.elements()) == ordered
    klein = subgroup_from_elements(G, sorted(closure(
        4, [parse_perm("(1 2)(3 4)", 4), parse_perm("(1 3)(2 4)", 4)])))
    for H in (whole, Subgroup(G, [parse_perm("(1 2 3)", 4)]),
              Subgroup(klein, klein.generators)):
        assert H._levels is None
        assert H.points() == points
        assert H._levels is None
    # the Klein group's own chain has a shorter base; its points are G's
    assert klein.points() == points
    assert tuple(b - 1 for b in klein.base) != points


# the seven groups of order 1,024-3,600 of the benchmark's large workload
LARGE_SPECS = (
    "direct_product(heisenberg(3),heisenberg(5))",
    "direct_product(symmetric(4),heisenberg(5))",
    "elem_abelian(2,10)",
    "direct_product(alternating(5),heisenberg(3))",
    "direct_product(symmetric(4),elem_abelian(3,4))",
    "direct_product(alternating(5),alternating(5))",
    "alternating(7)",
)
# sha256 over the corpus and LARGE_SPECS of each group's JSON
# [base, element images in element order]
BASE_AND_ORDER_SHA256 = (
    "e9956ee5e38ff85eacda157ff07ab9ff7acf636b1eb6f78e9eaa1b96add718c4")
# sha256 over the corpus of the generator images of Z, Z2, C_G(G'), D, zed
# and each Sylow subgroup, in that order
HANDLE_GENERATORS_SHA256 = (
    "665a741fac05dddefa756134c697281f9b4c891149854a342a6f8b08d2c79f71")
# sha256 over the corpus and LARGE_SPECS of each chain level's strong
# generators, level by level
CHAIN_GENERATORS_SHA256 = (
    "d39ed34a22bbde2648120dbe12281ece4bbe5529454e4ea40fafaf6d97c0d10b")
# sha256 over LARGE_SPECS of the generator images of the Sylow subgroups of
# G, G' and D, prime by prime: groups above TABLE_CAP, scanned as Perms
LARGE_SYLOW_GENERATORS_SHA256 = (
    "d316b1b0f20a7451754df65197fe39cfdaf0391fa0dd3c3758d149c8b4a56328")


def test_base_and_element_order_are_pinned():
    """A kernel change must not move a base or the element order: every
    handle's generators and every report depend on them."""
    specs = list(default_corpus().specs) + [
        parse_group_spec("family:" + text) for text in LARGE_SPECS]
    assert len(specs) == 147
    digest = hashlib.sha256()
    for spec in specs:
        G = build_group(spec)
        digest.update(json.dumps(
            [G.base, [e._img for e in G.elements()]]).encode())
    assert digest.hexdigest() == BASE_AND_ORDER_SHA256


def test_handle_generators_are_pinned():
    """subgroup_from_elements picks each handle's generators greedily in
    list order; the orders and reports downstream depend on that choice,
    so the generators of Z, Z2, C_G(G'), D, zed and every Sylow subgroup of
    the default corpus are pinned."""
    digest = hashlib.sha256()
    for spec in default_corpus().specs:
        G = build_group(spec)
        handles = [center(G), second_center(G),
                   centralizer(G, derived_subgroup(G).generators),
                   dee_subgroup(G), zed_subgroup(G)]
        handles += [sylow(G, p) for p in sorted(prime_factors(G.order()))]
        digest.update(json.dumps(
            [[g._img for g in H.generators] for H in handles]).encode())
    assert digest.hexdigest() == HANDLE_GENERATORS_SHA256


def test_chain_generators_are_pinned():
    """The strong generators of every level are the ones the Perm-built
    chain chose: the transversals, and so the element order, follow them."""
    specs = list(default_corpus().specs) + [
        parse_group_spec("family:" + text) for text in LARGE_SPECS]
    digest = hashlib.sha256()
    for spec in specs:
        G = build_group(spec)
        digest.update(json.dumps(
            [level.gens for level in G._chain()]).encode())
    assert digest.hexdigest() == CHAIN_GENERATORS_SHA256


def test_large_sylow_generators_are_pinned():
    """The Sylow ascent on groups above TABLE_CAP, larger than any the
    corpus pin above reaches."""
    digest = hashlib.sha256()
    for text in LARGE_SPECS:
        G = build_group(parse_group_spec("family:" + text))
        for H in (G, derived_subgroup(G), dee_subgroup(G)):
            digest.update(json.dumps(
                [[g._img for g in sylow(H, p).generators]
                 for p in sorted(prime_factors(H.order()))]).encode())
    assert digest.hexdigest() == LARGE_SYLOW_GENERATORS_SHA256


def test_chains_built_at_a_known_order_are_the_unbounded_chains():
    """Every chain that stops at a proven order (G/Z(G), the Sylow
    subgroups, and the filtered handles Z, Z2, C_G(G'), D and zed) is the
    chain that Schreier-Sims builds with no bound."""
    specs = list(default_corpus().specs) + [
        parse_group_spec("family:" + text) for text in LARGE_SPECS]
    for spec in specs:
        G = build_group(spec)
        handles = [quotient_by_center(G).quotient, center(G),
                   second_center(G),
                   centralizer(G, derived_subgroup(G).generators),
                   dee_subgroup(G), zed_subgroup(G)]
        handles += [sylow(G, p) for p in sorted(prime_factors(G.order()))]
        for H in handles:
            bound = H._order_bound()
            assert bound == H.order()
            unbounded = _chain_data(_schreier_sims(H.degree, H.generators))
            assert _chain_data(H._chain()) == unbounded
            assert _chain_data(
                _schreier_sims(H.degree, H.generators, bound)) == unbounded
