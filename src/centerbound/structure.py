"""The subgroup algebra: centralizers, centers, derived and mutual commutator
subgroups, the second center, Sylow subgroups, normalizers, quotients by
normal subgroups and socles of abelian p-groups.

Cosets of a normal subgroup N have one owner, ``_cosets``: a memoized map
from G's elements, keyed by their images of G's base points
(``Group.points()``, by ``group._key``), to N-coset numbers, in order of first
appearance.  Elements of G agree on a base only when they are equal, and
the key of a product g n is one short gather of n by the key of g.  The
quotient G/N groups G's own elements into blocks by that map: projecting
an element costs one short gather and one lookup per coset, and preimages
are whole blocks.  The filters below and G/Z(G) read the same map for
N = Z(G).

Centralizer-style subgroups are computed by exhaustive element filtering
under the enumeration cap: at desk scale the simple, obviously-correct
method wins, and the cap fails loudly.  The normal closure is written once
against the element representations of table.py; the filters run on
Perms.  C_G(S) for S in G, Z2, D, normalizers and LK's C_G(H) contain
Z(G), so they are unions of its cosets: ``by_center_cosets`` hands the
first element of each coset to a select,
which filters that list one generator at a time (each pass reads only the
survivors of the one before), and keeps or drops each coset whole.  Only
Z(G), which defines the cosets, is filtered element by element.  Z2, D and
the T/M witness's M are one filter, {g | [g, X] <= Z(G)}; M asks for
[g, X] <= G' n Z(G), the same set, since commutators lie in G'.  The
structure report checks Z2 against the preimage of Z(G/Z(G)): the
commutator filter against the center of the quotient's action, over one
coset map.  The Sylow ascent builds no normalizer: each step scans G for
the one element of N_G(P) it adds, deciding P^y = P once per coset of
Z(G).  Normality is always checked explicitly, never assumed from theory,
so implementation bugs surface as NotNormal instead of silently wrong
answers.

Results that are expensive and reused (derived subgroup, center, second
center, zed, D, Sylow subgroups, quotients, the structure report) live in
the group's one memo, keyed without caps: a cap is an admission check that
every hit reruns (see ``Group.memo``).  A filter that keeps all of G gives G
itself, and a p-group is its own Sylow p-subgroup.  So Z2, C_G(G') and D of
a group of class at most 2, Z of an abelian group and the Sylow subgroup of
a p-group are G and share G's memo: their coset maps and Sylow ascents are
G's, built once.  When |G'| = |G|, G' is G, so C_G(G') is Z(G) and D is Z2
by definition: the report hands out those handles and filters neither.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .arith import p_part, prime_factors
from .errors import NotAbelian, NotNormal, NotPGroup
from .group import (DEFAULT_COSET_CAP, DEFAULT_ENUMERATION_CAP, Group,
                    Subgroup, _key, admit, subgroup_from_elements)
from .perm import Perm, commutator, commute, gather
from .table import _Perms


def _ambient(A: Group) -> Group:
    g = A
    while isinstance(g, Subgroup):
        g = g.parent
    return g


# -- the normal closure -----------------------------------------------------


def normal_closure(world, seed, conjugators):
    """The closure of seed under multiplication and conjugation by the
    conjugators, in either representation.  The generators are the seed,
    then each round's new conjugates, without repeats or the identity."""
    gens = list(dict.fromkeys(s for s in seed if s != world.identity))
    K = world.closure(gens)
    while True:
        new = [c for k in gens for t in conjugators
               if (c := world.conjugate(k, t)) not in K]
        if not new:
            return K
        gens += dict.fromkeys(new)
        K = world.closure(gens)


# -- centralizer-style filters ---------------------------------------------


def centralizing(elems, S, points) -> list[Perm]:
    """The members of elems commuting with every s in S, in order: the one
    element-by-element centralizer filter, one pass per s over the members
    that commute with the ones before it.  Commuting is decided on points, a
    base of a group holding elems and S (see ``perm.commute``)."""
    kept = list(elems)
    for s in S:
        kept = [g for g in kept if commute(g, s, points)]
    return kept


def _center_cosets(G: Group, cap: int):
    """The Z(G)-coset numbers of G's elements, in G's element order, and
    the first element of each coset, in coset-number order (``_cosets``)."""
    numbers = _cosets(G, center(G, cap), cap).values()
    # cosets are numbered by first appearance, so the first positions of
    # the numbers, in increasing order, come in coset-number order
    firsts = dict(zip(reversed(numbers), reversed(range(len(numbers)))))
    return numbers, gather(sorted(firsts.values()), G.elements(cap))


def by_center_cosets(G: Group, select, cap: int) -> list:
    """The elements of G, in G's element order, whose coset of Z(G) select
    keeps.  select gets the first elements (_center_cosets) once, in a
    tuple, and returns the ones it keeps; each kept coset is taken whole:
    exact for any subgroup of G containing Z(G)."""
    numbers, reps = _center_cosets(G, cap)
    kept = set(select(reps))
    passed = [x in kept for x in reps]
    return list(itertools.compress(G.elements(cap), gather(numbers, passed)))


def _cosets(G: Group, N: Group, cap: int) -> dict[tuple[int, ...], int]:
    """Memoized per normal N: G's elements, by their ``_key`` in G's element
    order, to their N-coset numbers, numbered in the order the cosets first
    appear."""
    def compute():
        key = _key(G)
        kernel = [n._img for n in N.elements(cap)]
        cosets = dict.fromkeys(key(e._img) for e in G.elements(cap))
        count = 0
        for g, c in cosets.items():
            if c is None:
                for n in kernel:  # an existing key keeps its tuple
                    cosets[gather(g, n)] = count
                count += 1
        return cosets
    return G.memo(("cosets", N), compute, elements=cap)


def centralizer(G: Group, S: Sequence[Perm],
                cap: int = DEFAULT_ENUMERATION_CAP) -> Group:
    """{g in G | gs = sg for all s in S} for S a subset of G, which contains
    Z(G): the centralizing filter over one element per coset of Z(G)."""
    points = G.points()
    return subgroup_from_elements(G, by_center_cosets(
        G, lambda reps: centralizing(reps, S, points), cap))


def center(G: Group, cap: int = DEFAULT_ENUMERATION_CAP) -> Group:
    """Z(G) = the elements commuting with a generating set, by an
    element-by-element filter (it defines the cosets the other filters
    walk)."""
    return G.memo("center", lambda: subgroup_from_elements(
        G, centralizing(G.elements(cap), G.generators, G.points())),
        elements=cap)


def _commutes_into_center(G: Group, X: Sequence[Perm], cap: int):
    """The select of ``by_center_cosets`` keeping the g with [g, x] in Z(G)
    for every x in X, which holds exactly when [g, <X>] <= Z(G), as
    [g, xy] = [g, y][g, x]^y.  For X in G it is also the test
    [g, <X>] <= zed = G' n Z(G), since [g, x] lies in G'.  [g, x] = g^-1 g^x
    is central exactly when g^x = x^-1 g x lies in g's coset of Z(G), so no
    g^-1 is built.  Each g of any list carries its coset number, looked up
    once, and each x in turn drops the g it fails.  The coset map's key of
    g^x is the key of x^-1 (a few images, computed once per x) gathered
    through g, then through x."""
    coset = _cosets(G, center(G, cap), cap)
    key = _key(G)
    pairs = [(key(x.inverse()._img), x._img) for x in X]

    def select(elems):
        alive = [(g, g._img, coset[key(g._img)]) for g in elems]
        for xinv, ximg in pairs:
            alive = [(g, img, c) for g, img, c in alive
                     if coset[gather(gather(xinv, img), ximg)] == c]
        return [g for g, _, _ in alive]
    return select


def second_center(G: Group, cap: int = DEFAULT_ENUMERATION_CAP) -> Group:
    """Z2(G) = {g | [g, G] <= Z(G)}, over one element per coset of Z(G)."""
    return G.memo("second_center", lambda: subgroup_from_elements(
        G, by_center_cosets(G, _commutes_into_center(G, G.generators, cap),
                            cap)), elements=cap)


def dee_subgroup(G: Group, cap: int = DEFAULT_ENUMERATION_CAP) -> Group:
    """D = {g | [g, G'] <= Z(G)}, the same filter on the generators of G';
    the handle of Z2 itself when |G'| = |G|."""
    def compute():
        derived = derived_subgroup(G)
        if derived.order() == G.order():
            return second_center(G, cap)
        return subgroup_from_elements(G, by_center_cosets(
            G, _commutes_into_center(G, derived.generators, cap), cap))
    return G.memo("dee", compute, elements=cap)


def normalizer(G: Group, H: Group,
               cap: int = DEFAULT_ENUMERATION_CAP) -> Group:
    """{g in G | H^g = H} for H <= G, which contains Z(G): filtered over one
    element per coset of Z(G), one generator h at a time, by looking h^g up
    in H's element set.  The Sylow ascent needs one element of N_G(P) per
    step and finds it without this filter (_ascent_step)."""
    hset = H.element_set(cap)

    def select(reps):
        for h in H.generators:
            reps = [g for g in reps if h.conjugate(g) in hset]
        return reps
    return subgroup_from_elements(G, by_center_cosets(G, select, cap))


def intersection(A: Group, B: Group,
                 cap: int = DEFAULT_ENUMERATION_CAP) -> Group:
    """A intersect B as a handle on the ambient group of A."""
    small, large = (A, B) if A.order() <= B.order() else (B, A)
    selected = [x for x in small.elements(cap) if x in large]
    return subgroup_from_elements(_ambient(A), selected)


def is_normal(G: Group, H: Group) -> bool:
    """H normal in G, decided by sifting generator conjugates into H."""
    return all(h.conjugate(g) in H for h in H.generators for g in G.generators)


def is_subgroup_of(A: Group, B: Group) -> bool:
    return all(a in B for a in A.generators)


# -- commutator subgroups ----------------------------------------------------


def mutual_commutator(A: Group, B: Group) -> Subgroup:
    """[A, B]: the normal closure in <A, B> of the generator commutators."""
    seed = [commutator(a, b) for a in A.generators for b in B.generators]
    return normal_closure(_Perms(_ambient(A)), seed,
                          A.generators + B.generators)


def derived_subgroup(G: Group) -> Subgroup:
    return G.memo("derived", lambda: mutual_commutator(G, G))


def zed_subgroup(G: Group, cap: int = DEFAULT_ENUMERATION_CAP) -> Group:
    """The intersection of the derived subgroup with the center."""
    return G.memo("zed", lambda: intersection(center(G, cap),
                                              derived_subgroup(G), cap),
                  elements=cap)


# -- Sylow subgroups ---------------------------------------------------------


def sylow(G: Group, p: int, cap: int = DEFAULT_ENUMERATION_CAP) -> Group:
    """A Sylow p-subgroup by ascent: trivial when p doesn't divide the order,
    G itself when G is a p-group (a p-group is its own Sylow p-subgroup, and
    shares its memo), and otherwise P grown from 1 by one scan per step
    (_ascent_step)."""
    def compute():
        target = p_part(G.order(), p)
        if target == G.order():
            return G
        P = Subgroup(G, (), _trusted=True)
        while P.order() < target:
            y = _ascent_step(G, P, p, cap)
            # y normalizes P and y^p lies in P, so |<P, y>| = |P| p
            P = Subgroup(G, tuple(P.generators) + (y,), _trusted=True,
                         order=P.order() * p)
        return P
    return G.memo(("sylow", p), compute, elements=cap)


def _ascent_step(G: Group, P: Group, p: int, cap: int) -> Perm:
    """The first y in G's element order with y not in P, P^y = P and y^p in
    P: the first such element of N_G(P), without building N_G(P).  Z(G)
    normalizes P, so normalizing is decided once per coset of Z(G); while P
    is trivial every y normalizes it and no coset is needed."""
    pset, pgens = P.element_set(cap), P.generators
    cosets = (_cosets(G, center(G, cap), cap).values() if pgens
              else itertools.repeat(0))
    passed: dict[int, bool] = {}
    for y, c in zip(G.elements(cap), cosets):
        if y in pset:
            continue
        ok = passed.get(c)
        if ok is None:
            ok = passed[c] = all(h.conjugate(y) in pset for h in pgens)
        if ok and y ** p in pset:
            return y
    raise AssertionError(f"sylow ascent stalled at order {P.order()}")


# -- quotients ----------------------------------------------------------------


class QuotientPresentation:
    """A faithful action of G/N on the cosets of N.

    Each coset is a block: G's own elements in it, in G's element order,
    numbered as in ``_cosets``.  ``quotient`` is the image group;
    ``projection`` maps an element of G to its image permutation: per block,
    one short gather of the element by the key of the block's first element
    and one coset lookup.  Because the coset action of the quotient on
    itself is regular, the coset of q is the image of N's own coset: block
    ``q(c)``, where c is the number of the identity's coset (not always 0,
    since G's first element need not be the identity).
    """

    def __init__(self, source: Group, blocks: list[list[Perm]],
                 cosets: dict[tuple[int, ...], int]):
        self._blocks = blocks
        self._cosets = cosets
        key = _key(source)
        self._firsts = [key(block[0]._img) for block in blocks]
        self._home = cosets[key(range(source.degree))]  # the identity's
        # G/N acts regularly on the cosets of N: one element per block
        self.quotient = Group(len(blocks), map(self.projection,
                                               source.generators),
                              order=len(blocks))

    def projection(self, g: Perm) -> Perm:
        cosets, img = self._cosets, g._img
        return Perm._raw(tuple(cosets[gather(x, img)] for x in self._firsts))

    def preimage_elements(self, elems: Sequence[Perm]) -> list[Perm]:
        """All of G mapping onto the given quotient elements, coset by
        coset."""
        return [x for q in elems for x in self._blocks[q._img[self._home]]]


class _IdentityQuotient(QuotientPresentation):
    """Quotient by the trivial subgroup: G is its own coset action."""

    def __init__(self, source: Group):
        self.quotient = source

    def projection(self, g: Perm) -> Perm:
        return g

    def preimage_elements(self, elems: Sequence[Perm]) -> list[Perm]:
        return list(elems)


def quotient(G: Group, N: Group, coset_cap: int = DEFAULT_COSET_CAP,
             cap: int = DEFAULT_ENUMERATION_CAP) -> QuotientPresentation:
    """The action of G on the cosets of a normal subgroup N, memoized on G
    per N."""
    return G.memo(("quotient", N), lambda: _coset_action(G, N, coset_cap, cap),
                  cosets=coset_cap, elements=cap)


def _coset_action(G: Group, N: Group, coset_cap: int,
                  cap: int) -> QuotientPresentation:
    """Group G's own elements by the memoized coset map of N (``_cosets``),
    in G's element order: the blocks come in coset-number order."""
    if not is_normal(G, N):
        raise NotNormal("quotient requires a normal subgroup")
    index = G.order() // N.order()
    admit("cosets", coset_cap, index)
    if N.order() == 1:
        return _IdentityQuotient(G)

    cosets = _cosets(G, N, cap)
    blocks: dict[int, list[Perm]] = {}
    for g, c in zip(G.elements(cap), cosets.values()):
        blocks.setdefault(c, []).append(g)
    if any(len(block) != N.order() for block in blocks.values()):
        raise AssertionError(
            f"the {len(blocks)} cosets are not {index} blocks of {N.order()}")

    return QuotientPresentation(G, list(blocks.values()), cosets)


def quotient_by_center(G: Group, coset_cap: int = DEFAULT_COSET_CAP,
                       cap: int = DEFAULT_ENUMERATION_CAP) -> QuotientPresentation:
    return quotient(G, center(G, cap), coset_cap, cap)


# -- socles -------------------------------------------------------------------


def socle_p(A: Group, p: int, cap: int = DEFAULT_ENUMERATION_CAP) -> Group:
    """Subgroup of an abelian p-group generated by its order-p elements,
    i.e. {a | a^p = 1}; elementary abelian of rank = rank of A."""
    if not A.is_abelian():
        raise NotAbelian("socle_p requires an abelian group")
    order = A.order()
    if order > 1 and p_part(order, p) != order:
        raise NotPGroup(f"socle_p requires a {p}-group, order is {order}")
    selected = [a for a in A.elements(cap) if (a ** p).is_identity()]
    return subgroup_from_elements(A, selected)


# -- the structure report -----------------------------------------------------


@dataclass
class StructureReport:
    """The cast of subgroups walked by every statement check, with orders.

    dee is {g | [g, G'] <= Z(G)} and zed is the intersection of the derived
    subgroup with the center; p_parts maps each prime dividing |G' : zed| to
    its p-part.
    """
    group: Group
    derived: Subgroup
    center: Group
    second_center: Group
    centralizer_of_derived: Group
    dee: Group
    zed: Group
    orders: dict[str, int]
    p_parts: dict[int, int]


def structure_report(G: Group, cap: int = DEFAULT_ENUMERATION_CAP,
                     coset_cap: int = DEFAULT_COSET_CAP) -> StructureReport:
    """Compute all the named subgroups for one group and sanity-check the
    containments between them (a failure here is an implementation bug,
    not a property of the group)."""
    def compute():
        derived = derived_subgroup(G)
        zent = center(G, cap)
        zed = zed_subgroup(G, cap)
        second = second_center(G, cap)
        cent_derived = (zent if derived.order() == G.order()
                        else centralizer(G, derived.generators, cap))
        dee = dee_subgroup(G, cap)

        # cross-check the commutator filter's second center against the
        # preimage of the center of G/Z(G), the same cosets' action
        pres = quotient_by_center(G, coset_cap, cap)
        center_above = center(pres.quotient, cap)
        preimage = set(pres.preimage_elements(center_above.elements(cap)))
        if preimage != set(second.elements(cap)):
            raise AssertionError(
                "second center: filter and quotient preimage disagree")

        for smaller, larger, what in (
                (zent, second, "Z <= Z2"),
                (second, cent_derived, "Z2 <= C_G(G')"),
                (cent_derived, dee, "C_G(G') <= D")):
            if not is_subgroup_of(smaller, larger):
                raise AssertionError(f"structure containment {what} failed")
        for H in (derived, zent, second, cent_derived, dee):
            if not is_normal(G, H):
                raise AssertionError("structure subgroup is not normal")
        #  zed by double inclusion
        if not (is_subgroup_of(zed, derived) and is_subgroup_of(zed, zent)):
            raise AssertionError("zed escapes derived or center")
        for z in zent.elements(cap):
            if z in derived and z not in zed:
                raise AssertionError("zed misses a central derived element")

        orders = {
            "group": G.order(),
            "derived": derived.order(),
            "center": zent.order(),
            "second_center": second.order(),
            "centralizer_of_derived": cent_derived.order(),
            "dee": dee.order(),
            "zed": zed.order(),
        }
        n = orders["derived"] // orders["zed"]
        p_parts = {p: p_part(n, p) for p in prime_factors(n)}
        if math.prod(p_parts.values()) != n:
            raise AssertionError("p-parts do not multiply back")
        return StructureReport(G, derived, zent, second, cent_derived, dee,
                               zed, orders, p_parts)
    return G.memo("structure_report", compute, elements=cap,
                  cosets=coset_cap)
