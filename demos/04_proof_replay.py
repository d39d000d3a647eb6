"""Replaying the constructive steps of the proofs as algorithms.

Every object a proof constructs abstractly is built concretely and
re-verified: socle chains, commutator factorisations, the T/M subgroup
pairs behind the index bounds, and the commutator-map rank embeddings.
"""

from centerbound import (Subgroup, also_witness, build_group, commutator,
                         factorize_commutator, parse_group_spec,
                         rank_embedding_pl, select_socle_chain,
                         shrink_generating_set, szivas_witness)

def group(text):
    return build_group(parse_group_spec("family:" + text))

# 1. Socle chains: from any family of subgroups of an abelian p-group with
#    trivial intersection, at most rank-many members already intersect
#    trivially.
A = group("elem_abelian(2,2)")
a, b = A.generators
family = [Subgroup(A, [a]), Subgroup(A, [b]), Subgroup(A, [a * b])]
sel = select_socle_chain(A, family)
print("socle chain over C2 x C2: chose", len(sel.chosen), "of", len(family),
      "subgroups; chain orders", [c.order() for c in sel.chain])
print()

# 2. Commutator factorisation in a p-group P = <anchors, Z(P)>: every
#    element of P' is a product [x_1,a_1][x_2,a_2]...[x_d,a_d].
D4 = group("dihedral(4)")
anchors = shrink_generating_set(D4, list(D4.generators))
w = anchors[0] * anchors[0]          # the central rotation r^2
xs = factorize_commutator(D4, anchors, w)
print("factorising r^2 in Dih(4):")
for x, anchor in zip(xs, anchors):
    print(f"   [{x}, {anchor}] = {commutator(x, anchor)}")
print()

# 3. The T/M witnesses behind |C_G(G') : Z2| <= |G' : zed|^r and
#    |D : C_G(G')| <= |G' : zed|^(2r), per prime.
Q16 = group("dicyclic(4)")
for name, builder in (("also", also_witness), ("szivas", szivas_witness)):
    record = builder(Q16)
    for p, w in sorted(record.per_prime.items()):
        print(f"{name} witness on dicyclic(4), p={p}: index {w.index} <= "
              f"{w.n_p}^{w.exponent} = {w.bound}; "
              f"T order {w.tee.order() if w.tee else 1}, "
              f"M order {w.em.order() if w.em else '-'}")
print()

# 4. The rank embeddings for p-groups: rank(C_G(G')/Z2) <= r^2 and
#    rank(D/C_G(G')) <= 2 r^2, confirmed against directly computed ranks.
for which in ("pl1", "pl2"):
    rep = rank_embedding_pl(group("dihedral(32)"), which)
    print(f"{which} on dihedral(32): {rep.map_count} maps, homomorphisms "
          f"{rep.homomorphisms_ok}, kernel contained {rep.kernel_contained}, "
          f"section rank {rep.section_rank} <= {rep.bound}")
