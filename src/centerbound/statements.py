"""The statement catalog: each theorem or lemma instance as a checkable
predicate over one group, producing a Verdict with exact integer sides.

Tags:

* T1: |G'| <= |G : Z(G)|^(r+1), r = rank(G/Z(G)).
* T2: |G : Z2(G)| <= |G'|^(2r), r = rank(G').
* T3: |G : Z2(G)| <= |G' : G' n Z(G)|^(4r), r = rank of that section.
* C4: |H : Z(H)| <= |H'|^(4 rank(H')) for the capable group H = G/Z(G):
  Z(H) = Z2(G)/Z(G) and H' ~ G'/zed, so its sides and r are T3's.
* T5: with trivial center, C_G(G') <= G' (violating-element count).
* T6: with trivial center, |G| <= |G'|^(d+1), d = d(G').
* T7: p-groups: rank(G/Z2) <= (13 r^2 - r)/2, r = rank(G' mod zed).
* L9: Z2(G) <= C_G(G') and [C_G(G'), C_G(G')] <= Z(G).
* LK: |K : C_K(H)| <= |G' n K|^d(H) over every pair of a library member
  H and a normal subgroup K, on element sets of Perms.  d(H) comes from
  min_generators, memoized on H (a refusal too) and shared with T6 and CK
  for H = G'.  When a cap refuses it, LK reads the bracket lo <= d(H) <= hi
  that min_generators left in H's memo (d_bracket): a pair holds under lo,
  is violated over hi, and between them leaves LK uncomputable.  C_G(H)
  comes from the centralizer filter over the cosets of Z(G), except that
  C_G(G') is the structure report's.  Both are found once per distinct
  member: a later handle on the same subgroup is matched by order and
  sifting, without listing its elements.
* CK: |G : C_G(G')| <= |G'|^d(G').
* LA: |C_G(G') : Z2(G)| <= |G' : zed|^r.
* LB: G'/C_{G'}(P) is a p-group for each Sylow P of D.
* LS: |D : C_G(G')| <= |G' : zed|^(2r)  (the exponent-r form is recorded
  as data in the notes, never asserted).
* P1/P2: p-groups: rank(C_G(G')/Z2) <= r^2, rank(D/C_G(G')) <= 2 r^2.
* AUT: p-groups: rank(G/D) <= (7r^2-r)/2 for p = 2, (5r^2-r)/2 otherwise.
* FOC: G' n P n Z(G) = P' n Z(G) for every Sylow P of G.

The twelve statements lhs <= rhs in one number r (all but T5, L9, LK, LB
and FOC) are the rows of one table, ``_BOUNDS``, read by one evaluator.
A row names its r source: rank(G/Z(G)), rank(G'), rank(G'/zed), rank(H')
(T3's rank(G'/zed) under C4's name), or d(G').  Its lhs is an index
|top : bottom| of structure-report subgroups or the rank of such a
section, and its rhs is base^(a r + b) for an index base or
(a r^2 - b r)/c.  Only AUT's coefficients, which depend on p, and LS's
note on the exponent-r form are written for one tag.

Inapplicable hypotheses (one table, ``_HYPOTHESES``) yield applicable=False
(vacuously true); a cap firing anywhere yields computable=False -- never a
guessed bound.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .arith import is_prime_power, prime_factors
from .config import Config
from .errors import CapExceeded
from .group import Group, Subgroup
from .rank import (RankRefused, _section_rank, d_bracket, group_rank, known,
                   min_generators, normal_subgroups)
from .structure import (by_center_cosets, centralizing, derived_subgroup,
                        is_subgroup_of, structure_report, sylow)
from .witness import (WitnessRecord, _lb_section, also_witness,
                      szivas_witness)

STATEMENT_TAGS = ("T1", "T2", "T3", "C4", "T5", "T6", "T7", "L9", "LK",
                  "CK", "LA", "LB", "LS", "P1", "P2", "AUT", "FOC")


@dataclass
class Verdict:
    """One statement instance: exact sides, hypothesis and cap flags, and
    an optional witness payload.  Inclusion-shaped statements encode
    lhs = number of violating elements and rhs = 0."""
    statement: str
    applicable: bool
    computable: bool
    lhs: int
    rhs: int
    holds: bool
    witness: WitnessRecord | None = None
    notes: str = ""

    @property
    def violated(self) -> bool:
        return self.applicable and self.computable and not self.holds

    def to_json(self) -> dict:
        record = {
            "statement": self.statement,
            "applicable": self.applicable,
            "computable": self.computable,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
            "notes": self.notes,
        }
        if self.witness is not None:
            record["witness"] = self.witness.to_json()
        return record


def _vacuous(tag: str, note: str) -> Verdict:
    return Verdict(tag, False, True, 0, 0, True, None, note)


def _uncomputable(tag: str, note: str) -> Verdict:
    return Verdict(tag, True, False, 0, 0, True, None, note)


def _tightness(lhs: int, rhs: int) -> str:
    if lhs > 1 and rhs > 1:
        return f"tightness={math.log(lhs) / math.log(rhs):.4f}"
    return "tightness=trivial"


def _bound(tag: str, lhs: int, rhs: int, witness=None, extra: str = "") -> Verdict:
    notes = _tightness(lhs, rhs)
    if extra:
        notes = f"{extra}; {notes}"
    return Verdict(tag, True, True, lhs, rhs, lhs <= rhs, witness, notes)


def _inclusion(tag: str, violations: int, extra: str = "") -> Verdict:
    notes = extra or "inclusion encoded as violating-element count"
    return Verdict(tag, True, True, violations, 0, violations == 0, None, notes)


class _Evaluator:
    """One group under one config.  It holds nothing of its own: the
    structure report, quotients and ranks it asks for live in the group's
    memo, so evaluators are built per call."""

    def __init__(self, G: Group, config: Config):
        self.G = G
        self.config = config
        self.cap = config.enumeration_cap
        self.coset_cap = config.coset_cap
        self.subgroup_cap = config.subgroup_cap
        self.tuple_cap = config.tuple_cap

    @property
    def sr(self):
        return structure_report(self.G, self.cap, self.coset_cap)

    def rank(self, sr, top: str, bottom: str | None, what: str) -> int:
        """rank(top/bottom) over sr's subgroups, or rank(top) when bottom
        is None; an Unknown refuses the statement, naming the section as
        what."""
        num = getattr(sr, top)
        if bottom is None:
            r = group_rank(num, self.cap, self.subgroup_cap, self.tuple_cap)
        else:
            r = _section_rank(num, getattr(sr, bottom), self.cap,
                              self.subgroup_cap, self.tuple_cap,
                              self.coset_cap)
        return known(r, what)

    @property
    def p_group_prime(self):
        return is_prime_power(self.G.order())

    # -- individual statements -------------------------------------------

    def evaluate(self, tag: str) -> Verdict:
        try:
            if tag in _HYPOTHESES and not _HYPOTHESES[tag][0](self):
                return _vacuous(tag, _HYPOTHESES[tag][1])
            if tag in _BOUNDS:
                return self._eval_bound(tag, _BOUNDS[tag])
            return getattr(self, "_eval_" + tag.lower())()
        except RankRefused as exc:
            return _uncomputable(tag, str(exc))
        except CapExceeded as exc:
            return _uncomputable(tag, f"cap fired: {exc}")

    def _eval_bound(self, tag: str, row: _Bound) -> Verdict:
        """One ``_BOUNDS`` row: r, then the lhs, then the witness."""
        sr = self.sr
        if row.r == "d(G')":
            r = min_generators(sr.derived, self.cap, self.tuple_cap)
            extra = f"d={r}"
        else:
            r = self.rank(sr, *_R_SECTIONS[row.r], row.r)
            extra = f"H=G/Z(G), r={r}" if row.r == "H'" else f"r={r}"
        lhs = (self.rank(sr, *row.lhs) if len(row.lhs) == 3
               else _index(sr, *row.lhs))
        witness = row.witness and row.witness(
            self.G, self.cap, self.coset_cap, self.subgroup_cap,
            self.tuple_cap)
        a = row.a
        if tag == "AUT":
            p = self.p_group_prime
            a = 7 if p == 2 else row.a
            extra += f", p={p}"
        if row.base is None:
            rhs = (a * r * r - row.b * r) // row.c
        else:
            base = _index(sr, *row.base)
            rhs = base ** (a * r + row.b)
        if tag == "LS":
            form = "holds" if lhs <= base ** r else "exceeds"
            extra += f"; printed exponent-r form {form}"
        return _bound(tag, lhs, rhs, witness, extra)

    def _eval_t5(self) -> Verdict:
        sr = self.sr
        derived_set = sr.derived.element_set(self.cap)
        violations = sum(
            1 for c in sr.centralizer_of_derived.elements(self.cap)
            if c not in derived_set)
        return _inclusion("T5", violations, "C_G(G') <= G'")

    def _eval_l9(self) -> Verdict:
        sr = self.sr
        cent_set = sr.centralizer_of_derived.element_set(self.cap)
        z_set = sr.center.element_set(self.cap)
        violations = sum(1 for z in sr.second_center.elements(self.cap)
                         if z not in cent_set)
        cc = derived_subgroup(sr.centralizer_of_derived)
        violations += sum(1 for c in cc.elements(self.cap)
                          if c not in z_set)
        return _inclusion("L9", violations,
                          "Z2 <= C_G(G') and [C_G(G'),C_G(G')] <= Z(G)")

    def _eval_lk(self) -> Verdict:
        G = self.G
        sr = self.sr
        try:
            normals = normal_subgroups(G, self.subgroup_cap, self.cap)
            source = "all normal subgroups"
        except CapExceeded:
            normals, seen = [], set()
            for K in (Subgroup(G, (), _trusted=True), sr.zed, sr.center,
                      sr.derived, sr.second_center,
                      sr.centralizer_of_derived, sr.dee, G):
                if (kset := K.element_set(self.cap)) not in seen:
                    seen.add(kset)
                    normals.append(K)
            source = "canonical normal subgroups (subgroup cap fired)"
        derived = sr.derived.element_set(self.cap)
        ks = [(K.order(), K.element_set(self.cap)) for K in normals]
        meets = [len(kset & derived) for _, kset in ks]
        library = self._lk_library()
        members = []  # (H, d's bracket, C_G(H)) once per distinct subgroup H
        worst = None
        for h_name, H in library:
            found = next((m for m in members if m[0].order() == H.order()
                          and is_subgroup_of(H, m[0])), None)
            if found is None:
                found = (H, *self._lk_member(H))
                members.append(found)
            _, lo, hi, cgh = found
            for (order, kset), meet in zip(ks, meets):
                lhs = order // len(kset & cgh)
                d = lo if lhs <= meet ** lo else hi
                if meet ** lo < lhs <= meet ** hi:
                    return _uncomputable(
                        "LK", f"d(H) in [{lo}, {hi}] decides no bound on "
                              f"H={h_name}, |K|={order}: "
                              f"{meet}^{lo} < {lhs} <= {meet}^{hi}")
                rhs = meet ** d
                if worst is None or _worse(lhs, rhs, worst[0], worst[1]):
                    end = ("" if lo == hi else ", lower bound" if d == lo
                           else ", upper bound")
                    worst = (lhs, rhs, f"H={h_name} (d={d}{end}), "
                                       f"|K|={order}")
        lhs, rhs, descriptor = worst
        pairs = len(library) * len(normals)
        return _bound("LK", lhs, rhs,
                      extra=f"{pairs} pairs, K from {source}; worst: {descriptor}")

    def _lk_library(self):
        """LK's members H as (name, handle): G', Z2, a Sylow subgroup per
        prime and three seeded random 2-generator subgroups."""
        G = self.G
        sr = self.sr
        library = [("G'", sr.derived), ("Z2", sr.second_center)]
        for p in sorted(prime_factors(G.order())):
            library.append((f"sylow_{p}", sylow(G, p, self.cap)))
        rng = random.Random(f"{self.config.seed}:lk")
        for i in range(3):
            x = G.random_element(rng)
            y = G.random_element(rng)
            library.append((f"random_2gen_{i}", Subgroup(G, [x, y])))
        return library

    def _lk_member(self, H):
        """lo <= d(H) <= hi and C_G(H) as a set of Perms.  |C_K(H)| is then
        |K n C_G(H)|.  C_G(H) is read from the report for H = G' (C_G(G'))
        and |H| = |G| (Z(G)), is G for H = 1, and is otherwise filtered over
        one element per coset of Z(G), one generator of H at a time.
        lo = hi = min_generators, memoized on H; when a cap refuses it, they
        are the bracket min_generators left in H's memo (d_bracket)."""
        G, sr, cap = self.G, self.sr, self.cap
        known = (sr.centralizer_of_derived if H is sr.derived
                 else sr.center if H.order() == G.order()
                 else G if H.order() == 1 else None)
        if known is not None:
            cgh = known.element_set(cap)
        else:
            points = G.points()
            cgh = frozenset(by_center_cosets(
                G, lambda reps: centralizing(reps, H.generators, points), cap))
        try:
            d = min_generators(H, cap, self.tuple_cap)
            return d, d, cgh
        except CapExceeded:
            return (*d_bracket(H, cap), cgh)

    def _eval_lb(self) -> Verdict:
        sr = self.sr
        failing = 0
        checked = []
        for p in sorted(prime_factors(sr.orders["dee"])):
            P = sylow(sr.dee, p, self.cap)
            if not _lb_section(sr, p, P, self.cap)[1]:
                failing += 1
            checked.append(p)
        return _inclusion(
            "LB", failing,
            f"G'/C_G'(P) is a p-group for Sylow P of D, p in {checked}")

    def _eval_foc(self) -> Verdict:
        sr = self.sr
        violations = 0
        z_set = sr.center.element_set(self.cap)
        derived_set = sr.derived.element_set(self.cap)
        for p in sorted(prime_factors(self.G.order())):
            P = sylow(self.G, p, self.cap)
            left = {x for x in P.elements(self.cap)
                    if x in derived_set and x in z_set}
            p_derived = derived_subgroup(P)
            right = {x for x in p_derived.elements(self.cap) if x in z_set}
            violations += len(left ^ right)
        return _inclusion("FOC", violations,
                          "G' n P n Z(G) = P' n Z(G) per Sylow P")


class _Bound(NamedTuple):
    """A statement lhs <= rhs in r.  lhs is |top : bottom| over structure
    report keys, or rank(top/bottom) when a third entry names the section;
    a bottom of None is the trivial subgroup.  rhs is |top : bottom|^(a r
    + b) for a base (top, bottom), else (a r^2 - b r) / c."""
    r: str
    lhs: tuple
    base: tuple | None
    a: int
    b: int
    c: int = 1
    witness: Callable | None = None


# the section whose rank is each r source but d(G'); for H = G/Z(G),
# H' = G'Z(G)/Z(G) is isomorphic to G'/zed, so C4 ranks T3's section
_R_SECTIONS = {"G/Z(G)": ("group", "center"), "G'": ("derived", None),
               "G'/zed": ("derived", "zed"), "H'": ("derived", "zed")}

_BOUNDS = {
    "T1": _Bound("G/Z(G)", ("derived", None), ("group", "center"), 1, 1),
    "T2": _Bound("G'", ("group", "second_center"), ("derived", None), 2, 0),
    "T3": _Bound("G'/zed", ("group", "second_center"), ("derived", "zed"),
                 4, 0),
    "C4": _Bound("H'", ("group", "second_center"), ("derived", "zed"),
                 4, 0),
    "T6": _Bound("d(G')", ("group", None), ("derived", None), 1, 1),
    "T7": _Bound("G'/zed", ("group", "second_center", "G/Z2"), None, 13, 1,
                 2),
    "CK": _Bound("d(G')", ("group", "centralizer_of_derived"),
                 ("derived", None), 1, 0),
    "LA": _Bound("G'/zed", ("centralizer_of_derived", "second_center"),
                 ("derived", "zed"), 1, 0, witness=also_witness),
    "LS": _Bound("G'/zed", ("dee", "centralizer_of_derived"),
                 ("derived", "zed"), 2, 0, witness=szivas_witness),
    "P1": _Bound("G'/zed", ("centralizer_of_derived", "second_center",
                            "C/Z2"), None, 1, 0),
    "P2": _Bound("G'/zed", ("dee", "centralizer_of_derived", "D/C"), None,
                 2, 0),
    # a is 7 for p = 2, chosen in _eval_bound
    "AUT": _Bound("G'/zed", ("group", "dee", "G/D"), None, 5, 1, 2),
}


def _index(sr, top: str, bottom: str | None) -> int:
    return sr.orders[top] // (1 if bottom is None else sr.orders[bottom])


# each statement's hypothesis: whether G has it, and the note when it lacks it
_HYPOTHESES = {
    **dict.fromkeys(("T5", "T6"), (
        lambda ev: ev.sr.orders["center"] == 1, "requires trivial center")),
    **dict.fromkeys(("T7", "P1", "P2", "AUT"), (
        lambda ev: ev.G.order() == 1 or ev.p_group_prime is not None,
        "requires a p-group")),
}


def _worse(lhs1: int, rhs1: int, lhs2: int, rhs2: int) -> bool:
    """Pair 1 is a worse (tighter or violating) instance than pair 2."""
    v1, v2 = lhs1 > rhs1, lhs2 > rhs2
    if v1 != v2:
        return v1
    # compare lhs/rhs as exact fractions
    return lhs1 * rhs2 > lhs2 * rhs1


def evaluate(tag: str, G: Group, config: Config | None = None) -> Verdict:
    """Evaluate one statement on one group."""
    if tag not in STATEMENT_TAGS:
        raise ValueError(f"unknown statement {tag!r}")
    return _Evaluator(G, config or Config()).evaluate(tag)


def evaluate_all(G: Group, config: Config | None = None) -> list[Verdict]:
    """All statements in catalog order."""
    ev = _Evaluator(G, config or Config())
    return [ev.evaluate(tag) for tag in STATEMENT_TAGS]
