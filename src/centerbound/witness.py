"""Executable versions of the constructive proof steps.

Each operation here replays, on a concrete group, a construction that a
proof performs abstractly, and returns the constructed objects so they can
be re-verified and audited:

* select_socle_chain: from a family of subgroups of an abelian p-group with
  trivial intersection, pick at most rank-many members whose intersection
  is already trivial, by shrinking the socle along a descending chain.
* factorize_commutator: write any element of the derived subgroup of a
  p-group P = <a_1..a_d, Z(P)> as [x_1,a_1]...[x_d,a_d], by layered
  product-set search with predecessor tracking; the layers are kept in P's
  memo per anchor tuple, and each factorisation is re-verified.  The
  distinct [x, a] of a layer are found by their keys (images of P's base
  points), and each is built as a Perm once.
* also_witness / szivas_witness: the per-prime T/M construction bounding
  |C_G(G') : Z_2(G)| and |D : C_G(G')| by powers of |G' : G' n Z(G)|,
  written once in _tm_witness; each record is kept in the group's memo.
  When r = rank(G'/zed) is Unknown they raise rank.RankRefused, whose text
  is the note the statement catalog gives LA and LS.
* rank_embedding_pl: the commutator-map embeddings bounding the ranks of
  C_G(G')/Z_2(G) and D/C_G(G') in p-groups; it says if its pairs sampled,
  and reports the section rank as a value, Unknown past caps.  Each map
  value is built once per domain element, and the checks modulo zed read
  G's zed-coset numbers, so every map value must lie in G.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Sequence

from .arith import is_prime_power, prime_factors
from .errors import BadAnchors, BadFamily, NotInDerived, NotPGroup
from .config import DEFAULT_SAMPLE_PAIRS
from .group import (DEFAULT_COSET_CAP, DEFAULT_ENUMERATION_CAP,
                    DEFAULT_SUBGROUP_CAP, DEFAULT_TUPLE_CAP, Group, Subgroup,
                    _key, subgroup_from_elements)
from .perm import Perm, commutator, format_perm, gather
from .rank import (UnknownRank, _section_rank, abelian_rank, known,
                   shrink_generating_set)
from .structure import (_center_cosets, _commutes_into_center, _cosets,
                        by_center_cosets, center, centralizing,
                        derived_subgroup, intersection, is_normal, quotient,
                        socle_p, StructureReport, structure_report, sylow)


@dataclass
class SocleSelection:
    """Outcome of the socle-chain subgroup selection."""
    input_family: list[Group]
    chosen: list[Group]
    chain: list[Subgroup]


@dataclass
class PrimeWitness:
    """Per-prime payload of a T/M witness: the chosen elements, the
    subgroups T and M, and the verified index inequality."""
    prime: int
    xs: list[Perm]
    tee: Subgroup | None
    em: Subgroup | None
    index: int
    n_p: int
    exponent: int
    bound: int
    ok: bool

    def to_json(self) -> dict:
        return {
            "prime": self.prime,
            "xs": [format_perm(x) for x in self.xs],
            "tee_order": self.tee.order() if self.tee is not None else 1,
            "em_order": self.em.order() if self.em is not None else None,
            "index": self.index,
            "n_p": self.n_p,
            "exponent": self.exponent,
            "bound": self.bound,
            "ok": self.ok,
        }


@dataclass
class WitnessRecord:
    """The constructive objects of one proof replay.

    xs/tee/em surface the first prime with a nontrivial construction; the
    full per-prime detail lives in per_prime.
    """
    xs: list[Perm] = field(default_factory=list)
    tee: Subgroup | None = None
    em: Subgroup | None = None
    per_prime: dict[int, PrimeWitness] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "xs": [format_perm(x) for x in self.xs],
            "per_prime": {str(p): w.to_json()
                          for p, w in sorted(self.per_prime.items())},
        }


# -- socle chains ---------------------------------------------------------


def select_socle_chain(A: Group, family: list[Group],
                       cap: int = DEFAULT_ENUMERATION_CAP) -> SocleSelection:
    """Greedy chain through the socle: V starts as Soc(A) and is cut by the
    first family member (in input order) that strictly shrinks it, until V
    is trivial.  The chosen members number at most rank(A) and already
    intersect trivially."""
    order = A.order()
    p = is_prime_power(order)
    if order > 1 and p is None:
        raise NotPGroup(f"order {order} is not a prime power")
    socle = socle_p(A, p, cap) if p is not None else \
        subgroup_from_elements(A, list(A.elements(cap)))
    chain = [socle]
    chosen: list[Group] = []
    V = set(socle.elements(cap))
    while len(V) > 1:
        for H in family:
            W = V & set(H.elements(cap))
            if len(W) < len(V):
                chosen.append(H)
                V = W
                chain.append(
                    subgroup_from_elements(A, sorted(W)))
                break
        else:
            meet = set(A.elements(cap))
            for H in family:
                meet &= set(H.elements(cap))
            raise BadFamily(
                f"family intersection has order {len(meet)}, cannot shrink "
                f"a socle section of order {len(V)}")
    rank = abelian_rank(A, cap)
    if len(chosen) > rank:
        raise AssertionError(
            f"chose {len(chosen)} members, socle rank is only {rank}")
    running = set(A.elements(cap))
    for H in chosen:
        running &= set(H.elements(cap))
    if chosen and len(running) != 1:
        raise AssertionError("chosen members do not intersect trivially")
    return SocleSelection(list(family), chosen, chain)


# -- commutator factorisation (layered product sets) -----------------------


def commutator_product_layers(P: Group, anchors: list[Perm],
                              cap: int = DEFAULT_ENUMERATION_CAP
                              ) -> list[dict[Perm, tuple[Perm, Perm] | None]]:
    """Layer i holds every product [x_1,a_1]...[x_i,a_i], mapped to a
    (predecessor, x_i) pair; first writer wins, in element order.  The
    anchors lie in P, so each [x, a] = x^-1 a^-1 x a does, and the distinct
    ones are found by key (``group._key``): the key of x^-1 is each base
    point's position in x, gathered through a^-1, x and a.  A commutator is
    built only when its key is new."""
    elems = P.elements(cap)
    points = P.points()
    layers: list[dict] = [{P.identity_element(): None}]
    for a in anchors:
        ainv, aimg = a.inverse()._img, a._img
        step: dict[tuple[int, ...], tuple[Perm, Perm]] = {}
        for x in elems:
            img = x._img
            k = gather(gather(gather(tuple(map(img.index, points)), ainv),
                              img), aimg)
            if k not in step:
                step[k] = (commutator(x, a), x)
        nxt: dict[Perm, tuple[Perm, Perm]] = {}
        for prev in layers[-1]:
            for c, x in step.values():
                prod = prev * c
                if prod not in nxt:
                    nxt[prod] = (prev, x)
        layers.append(nxt)
    return layers


def _anchored_layers(P: Group, anchors: tuple[Perm, ...],
                     cap: int) -> list[dict]:
    """The product layers of P's anchors, once they and Z(P) are checked to
    generate P; memoized on P per anchor tuple."""
    def compute():
        gens = anchors + center(P, cap).generators
        if Group(P.degree, gens).order() != P.order():
            raise BadAnchors(
                "anchors and the center do not generate the group")
        return commutator_product_layers(P, list(anchors), cap)
    return P.memo(("commutator_layers", anchors), compute, elements=cap)


def factorize_commutator(P: Group, anchors: list[Perm], w: Perm,
                         cap: int = DEFAULT_ENUMERATION_CAP) -> list[Perm]:
    """Write w from the derived subgroup of the p-group P = <anchors, Z(P)>
    as [x_1,a_1][x_2,a_2]...[x_d,a_d]; the returned witness re-verifies."""
    order = P.order()
    if order > 1 and is_prime_power(order) is None:
        raise NotPGroup(f"order {order} is not a prime power")
    layers = _anchored_layers(P, tuple(anchors), cap)
    derived = derived_subgroup(P)
    if w not in derived:
        raise NotInDerived(f"{w} lies outside the derived subgroup")
    if w not in layers[-1]:
        raise AssertionError(
            "layered product set misses a derived-subgroup element")
    xs: list[Perm] = []
    current = w
    for i in range(len(anchors), 0, -1):
        prev, x = layers[i][current]
        xs.append(x)
        current = prev
    xs.reverse()
    product = P.identity_element()
    for x, a in zip(xs, anchors):
        product = product * commutator(x, a)
    if product != w:
        raise AssertionError("factorisation failed to re-verify")
    return xs


# -- the T/M witness constructions ------------------------------------------


def _tm_construction(G: Group, xs: list[Perm],
                     cap: int) -> tuple[Subgroup, Subgroup]:
    """T = <xs> and M = {g in G | [g, x] in zed for each x in xs}, with
    zed = G' n Z(G): the preimage of the centralizer of T's image in G/zed,
    without building G/zed.  A commutator of G lies in G', so it lies in
    zed exactly when it is central, and M is the Z2/D filter on xs: one
    test per coset of Z(G), as [gz, x] = [g, x] for central z."""
    T = Subgroup(G, xs)
    M = subgroup_from_elements(G, sorted(by_center_cosets(
        G, _commutes_into_center(G, xs, cap), cap)))
    return T, M


def _lb_section(sr: StructureReport, p: int, P: Group,
                cap: int) -> tuple[list[Perm], bool]:
    """The elements of C_{G'}(P), and whether |G' : C_{G'}(P)| is a power of
    p (1 included): lemma LB for a Sylow p-subgroup P of D."""
    cgp = centralizing(sr.derived.elements(cap), P.generators,
                       sr.group.points())
    index = sr.orders["derived"] // len(cgp)
    return cgp, index == 1 or is_prime_power(index) == p


def _also_xs(G: Group, sr: StructureReport, p: int, P: Group, r: int,
             cap: int, coset_cap: int) -> list[Perm]:
    """x_1..x_l (l <= r) whose centralizers cut the socle of
    (P n G')/(P n zed) down to nothing; none when that section is trivial."""
    p_meet_derived = intersection(P, sr.derived, cap)
    p_meet_zed = intersection(P, sr.zed, cap)
    if p_meet_derived.order() == p_meet_zed.order():
        return []
    pres = quotient(p_meet_derived, p_meet_zed, coset_cap, cap)
    A = pres.quotient
    # the first x in G per distinct centralizer in P n G'; images in A.  The
    # centralizer depends only on how x conjugates P n G' (normal in G), so
    # it is filtered once per distinct tuple of conjugated generators.  x and
    # xz act alike for z in Z(G), so the first x of each action is the first
    # element of its coset of Z(G), and only those are scanned
    pig_elems = p_meet_derived.elements(cap)
    pig_gens = p_meet_derived.generators
    actions: dict[tuple[Perm, ...], Perm] = {}
    for x in _center_cosets(G, cap)[1]:
        actions.setdefault(tuple(a.conjugate(x) for a in pig_gens), x)
    points = G.points()
    first_x: dict[frozenset, Perm] = {}
    for x in actions.values():
        first_x.setdefault(frozenset(
            centralizing(pig_elems, [x], points)), x)
    family = [subgroup_from_elements(
        A, sorted({pres.projection(c) for c in cx})) for cx in first_x]
    x_of = {id(H): x for H, x in zip(family, first_x.values())}
    xs = [x_of[id(H)] for H in select_socle_chain(A, family, cap).chosen]
    if len(xs) > r:
        raise AssertionError(f"{len(xs)} chain elements exceed rank {r}")
    return xs


def _szivas_xs(G: Group, sr: StructureReport, p: int, P: Group, r: int,
               cap: int, coset_cap: int) -> list[Perm]:
    """x_1, y_1, x_2, y_2, ... with commutators [x_i, y_i] whose images
    generate G'/C_{G'}(P), at most r pairs after shrinking; none when that
    quotient is trivial."""
    cgp_elems, p_power = _lb_section(sr, p, P, cap)
    if not p_power:
        raise AssertionError("G' modulo C_G'(P) is not a p-group")
    if len(cgp_elems) == sr.orders["derived"]:
        return []
    pres = quotient(sr.derived, subgroup_from_elements(G, cgp_elems),
                    coset_cap, cap)
    image = pres.quotient
    preimage_of_current = set(cgp_elems)
    # candidates: generator pairs, then generator by element, then element
    # pairs; each image kept lies outside <the images so far>
    gens, elems = G.generators, G.elements(cap)
    pair_of: dict[Perm, tuple[Perm, Perm]] = {}
    for x, y in itertools.chain(itertools.product(gens, gens),
                                itertools.product(gens, elems),
                                itertools.product(elems, elems)):
        c = commutator(x, y)
        if c in preimage_of_current:
            continue
        pair_of[pres.projection(c)] = (x, y)
        current = Subgroup(image, pair_of, _trusted=True)
        if current.order() == image.order():
            break
        preimage_of_current = set(
            pres.preimage_elements(current.elements(cap)))
    else:
        raise AssertionError("commutator images never generated the quotient")
    kept = [pair_of[img]
            for img in shrink_generating_set(image, list(pair_of), cap)]
    if len(kept) > r:
        raise AssertionError(f"{len(kept)} commutator pairs exceed rank {r}")
    return [z for pair in kept for z in pair]


# lemma: (top, bottom, exponent) with |top : bottom| <= |G' : zed|^exponent,
# from the structure report and r = rank(G'/zed); the picker of the xs
_LEMMAS = {
    "also": (lambda sr, r: (sr.centralizer_of_derived, sr.second_center, r),
             _also_xs),
    "szivas": (lambda sr, r: (sr.dee, sr.centralizer_of_derived, 2 * r),
               _szivas_xs),
}


def _tm_witness(G: Group, lemma: str, cap: int, coset_cap: int,
                subgroup_cap: int, tuple_cap: int) -> WitnessRecord:
    """The per-prime T/M construction of a lemma, memoized on G.  For each
    prime p of |top|, with P the Sylow p-subgroup of top (normal in G):
    verify |P : P n bottom| <= n_p^exponent, let the lemma pick the xs, build
    T = <xs> and M, and check M n P <= bottom."""
    section, pick = _LEMMAS[lemma]

    def compute() -> WitnessRecord:
        sr = structure_report(G, cap, coset_cap)
        r = known(_section_rank(sr.derived, sr.zed, cap, subgroup_cap,
                                tuple_cap, coset_cap), "G'/zed")
        top, bottom, exponent = section(sr, r)
        bottom_set = bottom.element_set(cap)
        record = WitnessRecord()
        total = 1
        for p in sorted(prime_factors(top.order())):
            P = sylow(top, p, cap)
            if not is_normal(G, P):
                raise AssertionError(f"{lemma}: Sylow {p}-subgroup not normal")
            n_p = sr.p_parts.get(p, 1)
            index = P.order() // sum(x in bottom_set for x in P.elements(cap))
            bound = n_p ** exponent
            xs = pick(G, sr, p, P, r, cap, coset_cap)
            T = M = None
            if xs:
                T, M = _tm_construction(G, xs, cap)
                m_set = M.element_set(cap)
                if any(g in m_set and g not in bottom_set
                       for g in P.elements(cap)):
                    raise AssertionError(f"{lemma}: M n P escapes the bottom")
                if record.tee is None:
                    record.xs, record.tee, record.em = xs, T, M
            record.per_prime[p] = PrimeWitness(p, xs, T, M, index, n_p,
                                               exponent, bound, index <= bound)
            total *= index
        if total != top.order() // bottom.order():
            raise AssertionError(f"{lemma}: indices miss |top : bottom|")
        return record
    return G.memo(("witness", lemma), compute, elements=cap,
                  cosets=coset_cap, subgroups=subgroup_cap, tuples=tuple_cap)


def also_witness(G: Group, cap: int = DEFAULT_ENUMERATION_CAP,
                 coset_cap: int = DEFAULT_COSET_CAP,
                 subgroup_cap: int = DEFAULT_SUBGROUP_CAP,
                 tuple_cap: int = DEFAULT_TUPLE_CAP) -> WitnessRecord:
    """Per prime p dividing |C_G(G')|: pick elements x_1..x_l (l <= r) whose
    centralizers cut the socle of (P n G')/(P n Z) down to nothing, build
    T = <x_i> and M, check M n P <= Z_2(G), and verify
    |P : P n Z_2(G)| <= n_p^r."""
    return _tm_witness(G, "also", cap, coset_cap, subgroup_cap, tuple_cap)


def szivas_witness(G: Group, cap: int = DEFAULT_ENUMERATION_CAP,
                   coset_cap: int = DEFAULT_COSET_CAP,
                   subgroup_cap: int = DEFAULT_SUBGROUP_CAP,
                   tuple_cap: int = DEFAULT_TUPLE_CAP) -> WitnessRecord:
    """Per prime p dividing |D|, with P the Sylow p-subgroup of D: check
    that G'/C_{G'}(P) is a p-group, pick commutators [x_i,y_i] whose images
    generate it (at most r after shrinking), build T = <x_i, y_i> and M,
    check M n P <= C_G(G') n P, and verify |P : P n C_G(G')| <= n_p^(2r)."""
    return _tm_witness(G, "szivas", cap, coset_cap, subgroup_cap, tuple_cap)


# -- commutator homomorphism and the rank embeddings -------------------------


def _pairs(elems: Sequence, maps: int, sample_pairs: int,
           key: str) -> tuple[list[tuple], bool]:
    """The pairs each of a check's maps runs over, and whether they were
    sampled: all pairs while len(elems)^2 * maps fits max(sample_pairs, 2500),
    past it sample_pairs pairs drawn with the seed key; none without maps."""
    if not maps:
        return [], False
    if len(elems) ** 2 * maps <= max(sample_pairs, 2500):
        return list(itertools.product(elems, repeat=2)), False
    rng = random.Random(key)
    return [(rng.choice(elems), rng.choice(elems))
            for _ in range(sample_pairs)], True


@dataclass
class EmbeddingReport:
    """Outcome of replaying a commutator-map rank embedding on a p-group."""
    which: str
    prime: int
    map_count: int
    homomorphisms_ok: bool
    kernel_contained: bool
    section_rank: "int | UnknownRank"
    bound: int
    bound_holds: bool | None
    sampled: bool


# embedding: the lemma whose xs it uses, and the commutator map of each x
_MAPS = {"pl1": ("also", lambda a, t: commutator(a, t)),
         "pl2": ("szivas", lambda a, t: commutator(t, a))}


def rank_embedding_pl(G: Group, which: str,
                      cap: int = DEFAULT_ENUMERATION_CAP,
                      coset_cap: int = DEFAULT_COSET_CAP,
                      subgroup_cap: int = DEFAULT_SUBGROUP_CAP,
                      tuple_cap: int = DEFAULT_TUPLE_CAP,
                      sample_pairs: int = DEFAULT_SAMPLE_PAIRS,
                      seed: int = 0) -> EmbeddingReport:
    """Replay the rank embeddings: for pl1 the maps a -> [a, x_i] embed
    C_G(G')/(M n C_G(G')) into a power of G'/zed, giving
    rank(C_G(G')/Z_2) <= r^2; for pl2 the maps a -> [x_i, a], [y_i, a] on D
    give rank(D/C_G(G')) <= 2 r^2.  The xs come from the lemma's witness.

    Each map f is evaluated once per domain element, and both checks run
    on G's zed-coset numbers (``structure._cosets``): f(ab) = f(a)f(b) mod
    zed exactly when the keys of f(ab) and of f(a)f(b), which is
    gather(key(f(a)), f(b)), lie in one coset, and f(a) lies in zed exactly
    when its coset is the identity's.  So every map value must lie in G, as a commutator of
    elements of G does.  An embedding with no maps builds no coset map."""
    if which not in _MAPS:
        raise ValueError("which must be 'pl1' or 'pl2'")
    order = G.order()
    p = is_prime_power(order)
    if order > 1 and p is None:
        raise NotPGroup(f"order {order} is not a prime power")
    sr = structure_report(G, cap, coset_cap)
    r = known(_section_rank(sr.derived, sr.zed, cap, subgroup_cap, tuple_cap,
                            coset_cap), "G'/zed")
    lemma, fmap = _MAPS[which]
    domain, target, exponent = _LEMMAS[lemma][0](sr, r)
    xs = _tm_witness(G, lemma, cap, coset_cap, subgroup_cap, tuple_cap).xs
    dom_elems = domain.elements(cap)
    # pairs of positions in dom_elems: the same draws as pairs of elements
    pairs, sampled = _pairs(range(len(dom_elems)), len(xs), sample_pairs,
                            f"{seed}:{which}")
    homs_ok, kernel = True, range(len(dom_elems))
    if xs:
        coset = _cosets(G, sr.zed, cap)
        key = _key(G)
        one = coset[key(range(G.degree))]
        imgs = [a._img for a in dom_elems]
        keys = [key(img) for img in imgs]
        for t in xs:
            values = [fmap(a, t)._img for a in dom_elems]
            value_keys = [key(v) for v in values]
            number = {k: coset[v] for k, v in zip(keys, value_keys)}
            homs_ok = homs_ok and all(
                number[gather(keys[a], imgs[b])]
                == coset[gather(value_keys[a], values[b])] for a, b in pairs)
            kernel = [i for i in kernel if number[keys[i]] == one]
    target_set = target.element_set(cap)
    kernel_contained = all(dom_elems[i] in target_set for i in kernel)
    section_rank = _section_rank(domain, target, cap, subgroup_cap,
                                 tuple_cap, coset_cap)
    bound = exponent * r
    bound_holds = (None if isinstance(section_rank, UnknownRank)
                   else section_rank <= bound)
    return EmbeddingReport(which, p if p is not None else 0, len(xs),
                           homs_ok, kernel_contained, section_rank, bound,
                           bound_holds, sampled)
