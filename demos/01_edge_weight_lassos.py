"""Which leaf-pair distances pin down every edge weight of a tree?

Each cord (unordered leaf pair) of a tree contributes the 0/1 vector of
edges on its path.  A cord set determines all edge weights from its
distances exactly when those vectors span the whole edge space; the minimal
such sets are the bases of a matroid on the cords.
"""

import lassomatroid as lm

quartet = lm.tree_from_newick("((a,b),(c,d));")
print("tree:", quartet.to_newick(), "| edges:", len(quartet.edge_ids))

print("\nEvery cord turns into an incidence vector over the edges:")
for c in sorted(lm.all_cords("abcd")):
    print(f"  {c[0]}{c[1]}: {quartet.path_vector(c)}")

print("\nAll six cords have rank", lm.rank_of(quartet, lm.all_cords("abcd")),
      "over", len(quartet.edge_ids), "edges: one linear relation among them.")

print("\nThe minimal spanning sets (tight edge-weight lassos) are:")
for basis in lm.bases(quartet):
    print("  ", " ".join(a + b for a, b in sorted(basis)))
print("Each keeps the two cherry cords and drops exactly one crossing cord.")

print("\nCherry cords sit in every basis (they are the co-loops):")
print("  ", sorted(lm.coloops(quartet)))

five = [lm.cord(*p) for p in ("ab", "cd", "ac", "ad", "bc")]
verdict = lm.verdict(quartet, five)
print("\nverdict on {ab, cd, ac, ad, bc}:", verdict)

four = [lm.cord(*p) for p in ("ab", "cd", "ac", "bd")]
print("verdict on {ab, cd, ac, bd}:   ", lm.verdict(quartet, four),
      "(independent but not yet spanning)")

star = lm.star_tree("abcd")
print("\nThe 4-leaf star has", sum(1 for _ in lm.bases(star)),
      "bases; a sample:", sorted(next(iter(lm.bases(star)))))
