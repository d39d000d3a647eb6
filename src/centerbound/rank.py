"""Minimal generator numbers and ranks.

d(G) is the least size of a generating set; the rank of G is the maximum of
d(H) over all subgroups H.  d(H) does not change under conjugation, so the
rank is the maximum over one representative per conjugacy class of
subgroups (see _lattice), and only representatives go through the ladder
and its tuple search.  One strategy ladder computes d, written once
against the two element representations of table.py: Perm with BSGS
membership (``_Perms``) and indices into the Cayley table (``_Table``).  The
subgroups of a lattice run it on the table; min_generators, the one other
caller, runs it for a subgroup H on the Perms of H's ambient group and
memoizes d on H, so every statement asking for d(G') shares one run.  No
rung but the tuple search lists H.  The rungs:

* trivial group: 0;
* abelian: the number of invariant factors, _abelianization_d with H' = 1:
  the largest log_p |H : H^p| over primes p dividing |H|;
* p-group: the Burnside basis theorem, d = log_p |G : Phi(G)| with Phi the
  subgroup generated by commutators and p-th powers, normally closed;
* general: d >= 2, so a greedily pruned generating set of size 2 is the
  answer; else squeeze between the abelianization lower bound, the largest
  log_p |H : H'H^p|, and the pruned set, then search element subsets in
  element order under a tuple cap.  The search runs on a Cayley table, so
  a group above TABLE_CAP elements gets d only when the squeeze closes.

The Cayley table is built from generator rows: n Perm products per
generator, and every other entry is an index lookup (see ``table.py``).

Exact rank needs the subgroup lattice up to conjugacy, which is still
exponential; the default cap is small and deliberate, and past any cap rank
evaluates to Unknown -- a value, never a guess.  Unknown is made at the
edge, by group_rank and _section_rank only, and never memoized, so a later
call with larger caps computes the rank.  A caller that cannot go on
without the rank passes it through ``known``, which raises RankRefused (a
CapExceeded) with the text "rank of <what> is <the Unknown>".

The normal subgroups do not need the lattice: they are the joins of the
normal closures of conjugacy classes (normal_subgroups), under the same
caps as all_subgroups.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

from .arith import integer_log, is_prime_power, prime_factors
from .errors import CapExceeded, NotAbelian, NotGenerating, NotPGroup
from .group import (DEFAULT_ENUMERATION_CAP, DEFAULT_SUBGROUP_CAP,
                    DEFAULT_TUPLE_CAP, Group, Subgroup, admit)
from .perm import Perm, gather
from .structure import _ambient, normal_closure, quotient
from .table import _Perms, _Table, _table


@dataclass(frozen=True)
class UnknownRank:
    """Rank not computed because a cap fired; records which one."""
    what: str
    limit: int
    value: int

    def __repr__(self):
        return f"Unknown({self.what} cap {self.limit}, needed {self.value})"


class RankRefused(CapExceeded):
    """A rank that a statement or witness needs came out Unknown; the text
    is "rank of <what> is <the Unknown>", and what/limit/value are the
    Unknown's."""

    def __init__(self, what: str, rank: UnknownRank):
        Exception.__init__(self, f"rank of {what} is {rank}")
        self.what, self.limit, self.value = rank.what, rank.limit, rank.value


# -- the d ladder -------------------------------------------------------------


def _d(world, H, gens, tuple_cap: int) -> int:
    """d(H) for H generated by gens, in either representation."""
    size = world.size(H)
    if size == 1:
        return 0
    if all(world.commute(a, b) for a, b in itertools.combinations(gens, 2)):
        return _abelianization_d(world, H, gens)
    p = is_prime_power(size)
    if p is not None:
        return integer_log(size // world.size(_frattini(world, gens, p)), p)
    upper = len(_prune(world, gens, size))
    if upper == 2:  # H is not abelian, so d(H) >= 2
        return 2
    lower = max(2, _abelianization_d(world, H, gens))
    if upper == lower:
        return lower
    return world.search(H, lower, upper, tuple_cap)


def _frattini(world, gens, p: int):
    """For a p-group: the normal closure of generator commutators and
    generator p-th powers."""
    seed = [world.commutator(a, b) for a, b in itertools.combinations(gens, 2)]
    seed += [world.power(g, p) for g in gens]
    return normal_closure(world, seed, gens)


def _abelianization_d(world, H, gens) -> int:
    """d(H/H'): for each prime p, H/H'H^p is elementary abelian of rank the
    p-rank of H/H', and H'H^p is _frattini's closure; the largest rank.  For
    abelian H, H' = 1 and this is d(H)."""
    size = world.size(H)
    derived = normal_closure(
        world, [world.commutator(a, b)
                for a, b in itertools.combinations(gens, 2)], gens)
    return max((integer_log(size // world.size(_frattini(world, gens, p)), p)
                for p in prime_factors(size // world.size(derived))),
               default=0)


def _prune(world, gens, size: int) -> list:
    """Greedily drop generators the rest still generate without."""
    kept = list(gens)
    i = 0
    while i < len(kept):
        trial = kept[:i] + kept[i + 1:]
        if world.size(world.closure(trial)) == size:
            kept = trial
        else:
            i += 1
    return kept


# -- public operations ---------------------------------------------------------


def frattini_p(G: Group, p: int,
               cap: int = DEFAULT_ENUMERATION_CAP) -> Subgroup:
    """For a p-group: the normal closure of generator commutators and
    generator p-th powers; the quotient is elementary abelian of rank d."""
    order = G.order()
    if order > 1 and is_prime_power(order) != p:
        raise NotPGroup(f"order {order} is not a power of {p}")
    return G.memo(("frattini", p), lambda: _frattini(
        _Perms(G, cap), G.generators, p))


def abelian_rank(A: Group, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Invariant-factor count of a finite abelian group: the largest p-socle
    rank over primes p dividing the order (_abelianization_d with A' = 1)."""
    if not A.is_abelian():
        raise NotAbelian("abelian_rank requires an abelian group")
    return _abelianization_d(_Perms(A, cap), A, A.generators)


def min_generators(H: Group, cap: int = DEFAULT_ENUMERATION_CAP,
                   tuple_cap: int = DEFAULT_TUPLE_CAP) -> int:
    """Exact d(H) by the strategy ladder (see module docstring), on the
    Perms of H's ambient group.  Memoized on H, so the subgroups of one
    group share it."""
    return H.memo("d", lambda: _d(_Perms(_ambient(H), cap), H, H.generators,
                                  tuple_cap), elements=cap, tuples=tuple_cap)


def _lattice(G: Group, subgroup_cap: int, cap: int) -> tuple[
        _Table, dict[frozenset[int], tuple[int, ...]], list[frozenset[int]]]:
    """G's table, every subgroup of G as its set of table indices mapped to
    generators of it, and one representative per conjugacy class (see
    all_subgroups).  The unit of the walk is the cyclic subgroup: each is
    walked once, from its first element x in index order, which stands for
    it as its generator, its candidate and its entry in a skip set.  An
    extension <H, g> grows from H by whole cosets (_Table.extend).  A new
    subgroup is a representative, and its class is recorded whole by a
    breadth-first orbit under conjugation by G's generators, with conjugated
    generators.  Only representatives are extended, and only they go
    through group_rank's d and tuple search."""
    def compute():
        order = G.order()
        admit("subgroups", subgroup_cap, order)
        idx = _table(G, cap)
        table, inv = idx.table, idx.inv
        # conjugation by s: x -> s^-1 x s, the row of s^-1 then the column of s
        actions = [(table[inv[s]], tuple(row[s] for row in table))
                   for s in idx.gens]

        found: dict[frozenset[int], tuple[int, ...]] = {}
        reps: list[frozenset[int]] = []

        def record(hset: frozenset[int], gens: tuple[int, ...]):
            if hset in found:
                return
            found[hset] = gens
            reps.append(hset)
            orbit = [hset]
            for K in orbit:
                for row, col in actions:
                    conj = frozenset(gather(gather(K, row), col))
                    if conj not in found:
                        found[conj] = gather(gather(found[K], row), col)
                        orbit.append(conj)

        # cyclic[y] is the first element, in index order, of the cyclic
        # subgroup y generates, and stands for it: x^k generates <x> exactly
        # when gcd(k, |<x>|) = 1, so one walk of <x> labels all its generators
        cyclic: list[int | None] = [None] * idx.n
        cyclic[idx.identity] = idx.identity
        record(frozenset({idx.identity}), ())
        candidates = []
        for x in range(idx.n):
            if cyclic[x] is not None:
                continue
            powers = [x]
            while powers[-1] != idx.identity:
                powers.append(table[powers[-1]][x])
            m = len(powers)
            for k, y in enumerate(powers, 1):
                if gcd(k, m) == 1:
                    cyclic[y] = x
            record(frozenset(powers), (x,))
            if is_prime_power(m) is not None:
                candidates.append(x)

        pos = 0
        while pos < len(reps):
            hset = reps[pos]
            gens = found[hset]
            pos += 1
            if len(hset) == order:
                continue
            skip: set[int] = set()
            for g in candidates:
                if g in hset or g in skip:
                    continue
                new_gens = gens + (g,)
                record(idx.extend(hset, new_gens), new_gens)
                # the same extension from each H-conjugate of <g>: the orbit
                # of <g> under H's generators.  skip holds whole H-orbits,
                # so it doubles as the orbit's visited set
                orbit = [g]
                skip.add(g)
                for c in orbit:
                    for h in gens:
                        d = cyclic[idx.conjugate(c, h)]
                        if d not in skip:
                            skip.add(d)
                            orbit.append(d)
        return idx, found, reps
    return G.memo("lattice", compute, subgroups=subgroup_cap, elements=cap)


def all_subgroups(G: Group, subgroup_cap: int = DEFAULT_SUBGROUP_CAP,
                  cap: int = DEFAULT_ENUMERATION_CAP) -> list[Subgroup]:
    """Every subgroup exactly once, by bottom-up closure up to conjugacy
    (the cyclic extension method: Neubueser 1960; Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 2005): all cyclic subgroups,
    then repeated one-element extensions of one representative per class,
    deduplicated by element-set fingerprint, each new class listed whole.

    Extensions only need cyclic subgroups of prime-power order (every
    subgroup is generated by such elements), each tried through its first
    element.  For a fixed H, <g> and its conjugates under H give the same
    extension, so one cyclic subgroup per H-orbit is tried; the orbit is
    closed under H's generators.  A conjugate of H extends to the
    conjugates of H's extensions, so only representatives extend.
    """
    return G.memo("subgroups", lambda: _handles(
        G, *_lattice(G, subgroup_cap, cap)[:2], cap),
        subgroups=subgroup_cap, elements=cap)


def normal_subgroups(G: Group, subgroup_cap: int = DEFAULT_SUBGROUP_CAP,
                     cap: int = DEFAULT_ENUMERATION_CAP) -> list[Subgroup]:
    """Every normal subgroup exactly once, in the order of all_subgroups and
    under the same caps, without the lattice.

    A normal subgroup is a union of conjugacy classes, so it is the join of
    the normal closures of the classes it contains.  Each class's closure
    is grown over a greedy generating subset of the class, and the distinct
    closures are then closed under joins; both grow a known subgroup by
    whole cosets (_Table.extend).
    """
    def compute():
        admit("subgroups", subgroup_cap, G.order())
        idx = _table(G, cap)
        closures: dict[frozenset[int], tuple[int, ...]] = {}
        for cls in idx.classes():
            hset, gens = frozenset({idx.identity}), []
            for x in cls:
                if x not in hset:
                    gens.append(x)
                    hset = idx.extend(hset, gens)
            closures.setdefault(hset, tuple(gens))
        found = {frozenset({idx.identity}): ()}
        for nset, ngens in closures.items():
            for aset, agens in list(found.items()):
                if not nset <= aset:
                    joined = agens + ngens
                    found.setdefault(idx.extend(nset, joined), joined)
        return _handles(G, idx, found, cap)
    return G.memo("normals", compute, subgroups=subgroup_cap, elements=cap)


def _handles(G: Group, idx: _Table, found: dict[frozenset[int], tuple[int, ...]],
             cap: int) -> list[Subgroup]:
    """Handles on G for index sets mapped to their generators, sorted by
    order, then by sorted element images."""
    elems = idx.elems
    handles = []
    for hset, gens in found.items():
        handle = Subgroup(G, [elems[g] for g in gens], _trusted=True)
        handle._adopt_elements([elems[i] for i in sorted(hset)])
        handles.append(handle)
    handles.sort(key=lambda h: (
        h.order(), tuple(sorted(e._img for e in h.elements(cap)))))
    return handles


def group_rank(G: Group, cap: int = DEFAULT_ENUMERATION_CAP,
               subgroup_cap: int = DEFAULT_SUBGROUP_CAP,
               tuple_cap: int = DEFAULT_TUPLE_CAP) -> "int | UnknownRank":
    """max d(H) over one H per conjugacy class of subgroups, so the tuple
    search runs only on class representatives; abelian groups shortcut
    through abelian_rank.  Past any cap the result is Unknown, never a
    guess."""
    def compute():
        if G.is_abelian():
            return abelian_rank(G, cap)
        table, found, reps = _lattice(G, subgroup_cap, cap)
        return max(_d(table, hset, found[hset], tuple_cap) for hset in reps)
    try:
        return G.memo("rank", compute, elements=cap, subgroups=subgroup_cap,
                      tuples=tuple_cap)
    except CapExceeded as exc:
        return UnknownRank(exc.what, exc.limit, exc.value)


def _section_rank(num: Group, den: Group, cap: int, subgroup_cap: int,
                  tuple_cap: int, coset_cap: int) -> "int | UnknownRank":
    """rank of num/den (den normal in num), Unknown past caps."""
    try:
        pres = quotient(num, den, coset_cap, cap)
    except CapExceeded as exc:
        return UnknownRank(exc.what, exc.limit, exc.value)
    return group_rank(pres.quotient, cap, subgroup_cap, tuple_cap)


def known(r: "int | UnknownRank", what: str) -> int:
    """r itself, or RankRefused naming what when r is Unknown."""
    if isinstance(r, UnknownRank):
        raise RankRefused(what, r)
    return r


def shrink_generating_set(G: Group, gens: list[Perm],
                          cap: int = DEFAULT_ENUMERATION_CAP) -> list[Perm]:
    """From a generating set of a p-group, keep a subset of size exactly d
    that still generates: scan in order, keeping generators whose images in
    the Frattini quotient are independent of those already kept."""
    order = G.order()
    if order == 1:
        return []
    p = is_prime_power(order)
    if p is None:
        raise NotPGroup(f"order {order} is not a prime power")
    if Group(G.degree, gens).order() != order:
        raise NotGenerating("the given elements do not generate the group")
    phi = frattini_p(G, p, cap)
    kept: list[Perm] = []
    K = phi
    for g in gens:
        if g in K:
            continue
        kept.append(g)
        K = Subgroup(G, tuple(K.generators) + (g,), _trusted=True)
        if K.order() == order:
            break
    if Group(G.degree, kept).order() != order:
        raise AssertionError("Frattini-independent subset fails to generate")
    expected = integer_log(order // phi.order(), p)
    if len(kept) != expected:
        raise AssertionError(
            f"kept {len(kept)} generators, Burnside basis says {expected}")
    return kept
