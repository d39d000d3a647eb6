"""The two representations of a group's elements, one protocol for both:
the normal closure and the d ladder are each written once against it.

* ``_Table``, G's Cayley table: elements as indices into G's element list,
  subgroups as frozensets of indices.  Only groups of at most TABLE_CAP
  elements get one, and it lives in the group's memo.
* ``_Perms``: elements as Perm, subgroups as handles on G with membership
  by sifting; any size.  It decides commuting on G's points (the ambient
  base, ``Group.points()``), not on whole image tuples.  It is a closure
  protocol only: it lists no elements and builds no table.

A table is built and read only by the enumerations whose cost grows faster
than |G|: ``rank._lattice`` (with the d ladder on its class
representatives), ``rank.normal_subgroups`` and the tuple search.
Everything else runs on Perms, so no result depends on which tables an
earlier call happened to build.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .group import TABLE_CAP, Group, Subgroup, admit
from .perm import Perm, commutator, commute, gather


class _Table:
    """Elements as indices into G's element list, subgroups as frozensets of
    indices: tight integer loops over a Cayley table instead of tuple
    composition.

    Row a is left multiplication by elems[a]: table[a][b] is the index of
    elems[a] * elems[b].  The rows come from the generators.  For each
    generator g, left[x] = index of g * elems[x] costs n Perm products, and
    since (g c) b = g (c b), the row of a = g c is left composed with the
    row of c.  A breadth-first walk from the identity reaches every a that
    way, so the table costs n |gens| products and the rest is index lookups
    that run in C.  inv[a] is where row a meets the identity.  The table
    keeps no element orders: the subgroup lattice reads them off its one
    walk per cyclic subgroup (rank._lattice)."""

    def __init__(self, G: Group, cap: int):
        admit("table", TABLE_CAP, G.order())  # before listing G
        elems = G.elements(cap)
        n = len(elems)
        index = {e: i for i, e in enumerate(elems)}
        self.identity = index[G.identity_element()]
        self.gens = tuple(index[g] for g in G.generators)
        lefts = [tuple(index[g * e] for e in elems) for g in G.generators]
        rows: list = [None] * n
        rows[self.identity] = tuple(range(n))
        reached = [self.identity]
        for c in reached:
            for left in lefts:
                a = left[c]
                if rows[a] is None:
                    rows[a] = gather(rows[c], left)
                    reached.append(a)
        self.elems = elems
        self.table = rows
        self.inv = tuple(row.index(self.identity) for row in rows)
        self.n = n

    size = staticmethod(len)

    def commute(self, a: int, b: int) -> bool:
        return self.table[a][b] == self.table[b][a]

    def power(self, x: int, k: int) -> int:
        result = self.identity
        base = x
        while k:
            if k & 1:
                result = self.table[result][base]
            base = self.table[base][base]
            k >>= 1
        return result

    def closure(self, gens) -> frozenset[int]:
        known = {self.identity}
        frontier = [self.identity]
        table = self.table
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = table[x][g]
                if y not in known:
                    known.add(y)
                    frontier.append(y)
        return frozenset(known)

    def extend(self, hset: frozenset[int], gens) -> frozenset[int]:
        """<gens> for gens that generate a group containing the subgroup
        hset, such as hset's generators and more: hset grown by whole left
        cosets zH, one gather of H through row z per new coset, with z = g y
        for each generator g and coset representative y found so far."""
        table = self.table
        known = set(hset)
        reps = [self.identity]
        for y in reps:
            for g in gens:
                z = table[g][y]
                if z not in known:
                    known.update(gather(hset, table[z]))
                    reps.append(z)
        return frozenset(known)

    def conjugate(self, x: int, h: int) -> int:
        return self.table[self.table[self.inv[h]][x]][h]

    def commutator(self, x: int, y: int) -> int:
        t = self.table
        return t[t[t[self.inv[x]][self.inv[y]]][x]][y]

    def classes(self) -> list[list[int]]:
        """The conjugacy classes, as orbits under conjugation by the
        generators, in order of their least member."""
        seen = [False] * self.n
        out = []
        for x in range(self.n):
            if seen[x]:
                continue
            seen[x] = True
            orbit = [x]
            for y in orbit:
                for g in self.gens:
                    if not seen[z := self.conjugate(y, g)]:
                        seen[z] = True
                        orbit.append(z)
            out.append(orbit)
        return out

    def search(self, hset: frozenset[int], lower: int, upper: int,
               tuple_cap: int) -> int:
        """The least k in [lower, upper) for which some k members generate
        hset, else upper; every k-subset tried counts against tuple_cap."""
        if lower == upper:  # a closed bracket needs no search
            return upper
        # in element order, so the count does not depend on the table
        members = sorted(hset - {self.identity}, key=self.elems.__getitem__)
        tried, d = 0, upper
        for combo in itertools.chain.from_iterable(
                itertools.combinations(members, k)
                for k in range(lower, upper)):
            tried += 1
            if tried > tuple_cap or len(self.closure(combo)) == len(hset):
                d = len(combo)
                break
        admit("tuples", tuple_cap, tried)  # refuses a search the cap stopped
        return d


class _Perms:
    """Elements as Perm and subgroups as handles on G, with membership by
    sifting through their chains."""

    power = staticmethod(pow)
    commutator = staticmethod(commutator)
    conjugate = staticmethod(Perm.conjugate)
    size = staticmethod(Group.order)

    def __init__(self, G: Group):
        self.G = G
        self.identity = G.identity_element()

    @cached_property
    def points(self) -> tuple[int, ...]:
        """G's points, read on the first commute test."""
        return self.G.points()

    def commute(self, a: Perm, b: Perm) -> bool:
        return commute(a, b, self.points)

    def closure(self, gens) -> Subgroup:
        return Subgroup(self.G, gens, _trusted=True)


def _table(G: Group, cap: int) -> _Table:
    """G's table, memoized; refuses groups above TABLE_CAP elements."""
    return G.memo("table", lambda: _Table(G, cap), elements=cap)

