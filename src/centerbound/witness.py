"""Executable versions of the constructive proof steps.

Each operation here replays, on a concrete group, a construction that a
proof performs abstractly, and returns the constructed objects so they can
be re-verified and audited:

* select_socle_chain: from a family of subgroups of an abelian p-group with
  trivial intersection, pick at most rank-many members whose intersection
  is already trivial, by shrinking the socle along a descending chain.
* factorize_commutator: write any element of the derived subgroup of a
  p-group P = <a_1..a_d, Z(P)> as [x_1,a_1]...[x_d,a_d], by layered
  product-set search with predecessor tracking.
* also_witness / szivas_witness: the per-prime T/M constructions bounding
  |C_G(G') : Z_2(G)| and |D : C_G(G')| by powers of |G' : G' n Z(G)|.
* check_commutator_homomorphism: a -> [a, x] is a homomorphism on C_G(G').
* rank_embedding_pl: the commutator-map embeddings bounding the ranks of
  C_G(G')/Z_2(G) and D/C_G(G') in p-groups.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .arith import is_prime_power, prime_factors
from .errors import (BadAnchors, BadFamily, CapExceeded, NotInDerived,
                     NotPGroup)
from .config import DEFAULT_SAMPLE_PAIRS
from .group import (DEFAULT_COSET_CAP, DEFAULT_ENUMERATION_CAP,
                    DEFAULT_SUBGROUP_CAP, DEFAULT_TUPLE_CAP, Group, Subgroup,
                    subgroup_from_elements)
from .perm import Perm, commutator, format_perm
from .rank import abelian_rank, group_rank, shrink_generating_set, UnknownRank
from .structure import (center, centralizer, centralizing, derived_subgroup,
                        intersection, is_normal, quotient, socle_p,
                        StructureReport, structure_report, sylow,
                        zed_subgroup)


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
    (predecessor, x_i) pair; first writer wins, in element order."""
    elems = P.elements(cap)
    layers: list[dict] = [{P.identity_element(): None}]
    for a in anchors:
        ainv = a.inverse()
        step: dict[Perm, Perm] = {}
        for x in elems:
            c = x.inverse() * ainv * x * a
            if c not in step:
                step[c] = x
        nxt: dict[Perm, tuple[Perm, Perm]] = {}
        for prev in layers[-1]:
            for c, x in step.items():
                prod = prev * c
                if prod not in nxt:
                    nxt[prod] = (prev, x)
        layers.append(nxt)
    return layers


def factorize_commutator(P: Group, anchors: list[Perm], w: Perm,
                         cap: int = DEFAULT_ENUMERATION_CAP) -> list[Perm]:
    """Write w from the derived subgroup of the p-group P = <anchors, Z(P)>
    as [x_1,a_1][x_2,a_2]...[x_d,a_d]; the returned witness re-verifies."""
    order = P.order()
    if order > 1 and is_prime_power(order) is None:
        raise NotPGroup(f"order {order} is not a prime power")
    zp = center(P, cap)
    if Group(P.degree, list(anchors) + list(zp.generators)).order() != order:
        raise BadAnchors("anchors and the center do not generate the group")
    derived = derived_subgroup(P)
    if w not in derived:
        raise NotInDerived(f"{w} lies outside the derived subgroup")
    layers = commutator_product_layers(P, anchors, cap)
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


def _section_rank(num: Group, den: Group, cap: int, subgroup_cap: int,
                  tuple_cap: int, coset_cap: int):
    """rank of num/den (den normal in num), Unknown past caps."""
    try:
        pres = quotient(num, den, coset_cap, cap)
    except CapExceeded as exc:
        return UnknownRank(exc.what, exc.limit, exc.value)
    return group_rank(pres.quotient, cap, subgroup_cap, tuple_cap)


def _derived_mod_zed_rank(sr: StructureReport, cap: int, subgroup_cap: int,
                          tuple_cap: int, coset_cap: int) -> int:
    """r = rank(G'/zed); a cap that fires is raised, not made Unknown."""
    r = _section_rank(sr.derived, sr.zed, cap, subgroup_cap, tuple_cap,
                      coset_cap)
    if isinstance(r, UnknownRank):
        raise CapExceeded(f"derived mod zed (rank {r.what})", r.limit, r.value)
    return r


def _tm_construction(G: Group, xs: list[Perm], coset_cap: int,
                     cap: int) -> tuple[Subgroup, Subgroup]:
    """T = <xs> and M = the full preimage of the centralizer of the image
    of T in the quotient by zed = G' n Z(G)."""
    T = Subgroup(G, xs)
    pres = quotient(G, zed_subgroup(G, cap), coset_cap, cap)
    image_gens = [pres.projection(x) for x in xs]
    centre_above = centralizer(pres.quotient, image_gens, cap)
    m_elems = pres.preimage_elements(centre_above.elements(cap), cap)
    M = subgroup_from_elements(G, sorted(m_elems))
    return T, M


def also_witness(G: Group, cap: int = DEFAULT_ENUMERATION_CAP,
                 coset_cap: int = DEFAULT_COSET_CAP,
                 subgroup_cap: int = DEFAULT_SUBGROUP_CAP,
                 tuple_cap: int = DEFAULT_TUPLE_CAP) -> WitnessRecord:
    """Per prime p dividing |C_G(G')|: pick elements x_1..x_l (l <= r) whose
    centralizers cut the socle of (P n G')/(P n Z) down to nothing, build
    T = <x_i> and M, check M n P <= Z_2(G), and verify
    |P : P n Z_2(G)| <= n_p^r."""
    sr = structure_report(G, cap, coset_cap)
    r = _derived_mod_zed_rank(sr, cap, subgroup_cap, tuple_cap, coset_cap)
    record = WitnessRecord()
    cent = sr.centralizer_of_derived
    z2set = sr.second_center.element_set(cap)
    total = 1
    for p in sorted(prime_factors(cent.order())):
        P = sylow(cent, p, cap)
        if not is_normal(G, P):
            raise AssertionError("Sylow subgroup of C_G(G') not normal in G")
        n_p = sr.p_parts.get(p, 1)
        p_meet_z2 = [x for x in P.elements(cap) if x in z2set]
        index = P.order() // len(p_meet_z2)
        bound = n_p ** r
        ok = index <= bound
        witness = PrimeWitness(p, [], None, None, index, n_p, r, bound, ok)

        p_meet_derived = intersection(P, sr.derived, cap)
        p_meet_zed = intersection(P, sr.zed, cap)
        if p_meet_derived.order() > p_meet_zed.order():
            pres = quotient(p_meet_derived, p_meet_zed, coset_cap, cap)
            A = pres.quotient
            # family: images of the centralizers of each x in P n G',
            # deduplicated by element set, remembering the first x apiece
            family: list[Subgroup] = []
            family_x: dict[int, Perm] = {}
            seen_sets: dict[frozenset, int] = {}
            pig_elems = p_meet_derived.elements(cap)
            for x in G.elements(cap):
                cx = frozenset(centralizing(pig_elems, [x]))
                if cx in seen_sets:
                    continue
                seen_sets[cx] = len(family)
                # the image of the subgroup cx is itself a subgroup
                image = sorted({pres.projection(c) for c in cx})
                handle = subgroup_from_elements(A, image)
                family.append(handle)
                family_x[id(handle)] = x
            selection = select_socle_chain(A, family, cap)
            xs = [family_x[id(H)] for H in selection.chosen]
            if len(xs) > r:
                raise AssertionError(f"{len(xs)} chain elements exceed rank {r}")
            T, M = _tm_construction(G, xs, coset_cap, cap)
            for g in intersection(M, P, cap).elements(cap):
                if g not in z2set:
                    raise AssertionError("M n P escapes the second center")
            witness.xs, witness.tee, witness.em = xs, T, M
            if record.tee is None:
                record.xs, record.tee, record.em = xs, T, M
        record.per_prime[p] = witness
        total *= index
    if total != cent.order() // sr.second_center.order():
        raise AssertionError("per-prime indices do not multiply to |C : Z2|")
    return record


def szivas_witness(G: Group, cap: int = DEFAULT_ENUMERATION_CAP,
                   coset_cap: int = DEFAULT_COSET_CAP,
                   subgroup_cap: int = DEFAULT_SUBGROUP_CAP,
                   tuple_cap: int = DEFAULT_TUPLE_CAP) -> WitnessRecord:
    """Per prime p dividing |D|, with P the Sylow p-subgroup of D: check
    that G'/C_{G'}(P) is a p-group, pick commutators [x_i,y_i] whose images
    generate it (at most r after shrinking), build T = <x_i, y_i> and M,
    check M n P <= C_G(G') n P, and verify |P : P n C_G(G')| <= n_p^(2r)."""
    sr = structure_report(G, cap, coset_cap)
    r = _derived_mod_zed_rank(sr, cap, subgroup_cap, tuple_cap, coset_cap)
    record = WitnessRecord()
    dee = sr.dee
    cent = sr.centralizer_of_derived
    cent_set = cent.element_set(cap)
    total = 1
    for p in sorted(prime_factors(dee.order())):
        P = sylow(dee, p, cap)
        if not is_normal(G, P):
            raise AssertionError("Sylow subgroup of D not normal in G")
        cgp = subgroup_from_elements(
            G, centralizing(sr.derived.elements(cap), P.generators))
        quotient_order = sr.derived.order() // cgp.order()
        if quotient_order > 1 and is_prime_power(quotient_order) != p:
            raise AssertionError(
                "derived subgroup modulo the P-centralizer is not a p-group")
        n_p = sr.p_parts.get(p, 1)
        p_meet_cent = [x for x in P.elements(cap) if x in cent_set]
        index = P.order() // len(p_meet_cent)
        exponent = 2 * r
        bound = n_p ** exponent
        ok = index <= bound
        witness = PrimeWitness(p, [], None, None, index, n_p, exponent,
                               bound, ok)

        if quotient_order > 1:
            pres = quotient(sr.derived, cgp, coset_cap, cap)
            image = pres.quotient
            preimage_of_current = set(cgp.elements(cap))
            pairs: list[tuple[Perm, Perm]] = []
            images: list[Perm] = []
            for x, y in _commutator_pair_stream(G, cap):
                c = commutator(x, y)
                if c in preimage_of_current:
                    continue
                pairs.append((x, y))
                images.append(pres.projection(c))
                current = Subgroup(image, images, _trusted=True)
                if current.order() == image.order():
                    break
                preimage_of_current = set(
                    pres.preimage_elements(current.elements(cap), cap))
            else:
                raise AssertionError(
                    "commutator images never generated the quotient")
            kept_images = shrink_generating_set(image, images, cap)
            by_image: dict[Perm, tuple[Perm, Perm]] = {}
            for img, pair in zip(images, pairs):
                by_image.setdefault(img, pair)
            kept_pairs = [by_image[img] for img in kept_images]
            if len(kept_pairs) > r:
                raise AssertionError(
                    f"{len(kept_pairs)} commutator pairs exceed rank {r}")
            xs: list[Perm] = []
            for x, y in kept_pairs:
                xs.extend((x, y))
            T, M = _tm_construction(G, xs, coset_cap, cap)
            for g in intersection(M, P, cap).elements(cap):
                if g not in cent_set:
                    raise AssertionError("M n P escapes C_G(G')")
            witness.xs, witness.tee, witness.em = xs, T, M
            if record.tee is None:
                record.xs, record.tee, record.em = xs, T, M
        record.per_prime[p] = witness
        total *= index
    if total != dee.order() // cent.order():
        raise AssertionError("per-prime indices do not multiply to |D : C|")
    return record


def _commutator_pair_stream(G: Group, cap: int):
    """Deterministic candidate pairs: generator pairs first, then generator
    by element, then all element pairs."""
    gens = G.generators
    for x in gens:
        for y in gens:
            yield x, y
    elems = G.elements(cap)
    for x in gens:
        for y in elems:
            yield x, y
    for x in elems:
        for y in elems:
            yield x, y


# -- commutator homomorphism and the rank embeddings -------------------------


def check_commutator_homomorphism(G: Group, x: Perm,
                                  cap: int = DEFAULT_ENUMERATION_CAP,
                                  sample_pairs: int = DEFAULT_SAMPLE_PAIRS,
                                  seed: int = 0) -> bool:
    """a -> [a, x] is a homomorphism from C_G(G') into G': check
    [ab, x] = [a, x][b, x] on all pairs (or a seeded sample past the pair
    budget) and that every [a, x] lands in the derived subgroup."""
    sr = structure_report(G, cap)
    cent_elems = sr.centralizer_of_derived.elements(cap)
    derived = sr.derived
    if len(cent_elems) ** 2 <= max(sample_pairs, 2500):
        candidates = itertools.product(cent_elems, repeat=2)
    else:
        rng = random.Random(f"{seed}:homom")
        candidates = ((rng.choice(cent_elems), rng.choice(cent_elems))
                      for _ in range(sample_pairs))
    for a, b in candidates:
        if commutator(a * b, x) != commutator(a, x) * commutator(b, x):
            return False
        if commutator(a, x) not in derived:
            return False
    return True


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
    give rank(D/C_G(G')) <= 2 r^2."""
    if which not in ("pl1", "pl2"):
        raise ValueError("which must be 'pl1' or 'pl2'")
    order = G.order()
    p = is_prime_power(order)
    if order > 1 and p is None:
        raise NotPGroup(f"order {order} is not a prime power")
    sr = structure_report(G, cap, coset_cap)
    r = _derived_mod_zed_rank(sr, cap, subgroup_cap, tuple_cap, coset_cap)
    zed_set = sr.zed.element_set(cap)

    if which == "pl1":
        record = also_witness(G, cap, coset_cap, subgroup_cap, tuple_cap)
        domain = sr.centralizer_of_derived
        target = sr.second_center
        bound = r * r
    else:
        record = szivas_witness(G, cap, coset_cap, subgroup_cap, tuple_cap)
        domain = sr.dee
        target = sr.centralizer_of_derived
        bound = 2 * r * r
    xs = record.xs

    homs_ok = True
    dom_elems = domain.elements(cap)
    if len(dom_elems) ** 2 * max(len(xs), 1) <= max(sample_pairs, 2500):
        candidates = list(itertools.product(dom_elems, repeat=2))
    else:
        rng = random.Random(f"{seed}:{which}")
        candidates = [(rng.choice(dom_elems), rng.choice(dom_elems))
                      for _ in range(sample_pairs)]
    for t in xs:
        for a, b in candidates:
            if which == "pl1":
                lhs, rhs = commutator(a * b, t), commutator(a, t) * commutator(b, t)
            else:
                lhs, rhs = commutator(t, a * b), commutator(t, a) * commutator(t, b)
            if lhs * rhs.inverse() not in zed_set:
                homs_ok = False

    kernel = []
    for a in dom_elems:
        if which == "pl1":
            in_kernel = all(commutator(a, t) in zed_set for t in xs)
        else:
            in_kernel = all(commutator(t, a) in zed_set for t in xs)
        if in_kernel:
            kernel.append(a)
    target_set = target.element_set(cap)
    kernel_contained = all(a in target_set for a in kernel)

    section_rank = _section_rank(domain, target, cap, subgroup_cap,
                                 tuple_cap, coset_cap)
    bound_holds = None
    if not isinstance(section_rank, UnknownRank):
        bound_holds = section_rank <= bound
    return EmbeddingReport(which, p if p is not None else 0, len(xs),
                           homs_ok, kernel_contained, section_rank, bound,
                           bound_holds)
