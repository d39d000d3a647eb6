"""Minimal generator numbers and ranks.

d(G) is the least size of a generating set; rk(G) is the maximum of d(H)
over all subgroups.  d(H) does not change under conjugation, so the rank
is read off one subgroup per conjugacy class: Sym(6) has 1,455 subgroups
in 56 classes.  Exact rank still requires the subgroup lattice, so past the
(configurable) cap the answer is an explicit Unknown, never a guess.
"""

from centerbound import (UnknownRank, abelian_rank, all_subgroups,
                         build_group, frattini_p, group_rank, min_generators,
                         parse_group_spec, shrink_generating_set)

def group(text):
    return build_group(parse_group_spec("family:" + text))

for text in ("cyclic(12)", "elem_abelian(2,3)", "dihedral(4)",
             "dicyclic(2)", "symmetric(4)", "heisenberg(3)"):
    G = group(text)
    print(f"{text}: d = {min_generators(G)}, rk = {group_rank(G)}")
print()

# The subgroup lattice of Sym(3): the trivial group, three reflections,
# the rotation subgroup, and the whole group.
subs = all_subgroups(group("symmetric(3)"))
print("subgroups of Sym(3):", sorted(H.order() for H in subs))
print()

# Frattini quotient of a p-group is elementary abelian of rank d.
D4 = group("dihedral(4)")
print("Frattini subgroup of Dih(4) has order", frattini_p(D4, 2).order())

# Any generating set of a p-group contains a generating subset of size d.
r, s = D4.generators
kept = shrink_generating_set(D4, [r, s, r * s])
print("shrunk {r, s, rs} to:", [str(g) for g in kept])
print()

# abelian rank comes from socle sizes, no lattice needed
print("rank of C2 x C4 x C3:", abelian_rank(group(
    "direct_product(cyclic(2),direct_product(cyclic(4),cyclic(3)))")))

# past the cap: Unknown carries which cap fired
rank = group_rank(group("symmetric(6)"))
assert isinstance(rank, UnknownRank)
print("rank of Sym(6) under default caps:", rank)
print("  (raise the cap, e.g. group_rank(G, subgroup_cap=1600), to compute it)")
print("rank of Sym(6) at subgroup_cap=1600:",
      group_rank(group("symmetric(6)"), subgroup_cap=1600))
