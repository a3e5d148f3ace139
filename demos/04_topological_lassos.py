"""When do partial distances force the shape of the tree, not just its weights?

A cord set is a topological lasso when no competing tree shape admits
weightings that agree with the original tree on those cords.  The decider
here is exact: competing shapes grow one leaf at a time, and a partial shape
is dropped as soon as rational linear feasibility shows it cannot agree with
the tree restricted to its leaves.  Two-sided cord sets (all pairs across a leaf
bipartition) are the key examples: they work exactly when each side clips
every cherry.
"""

import lassomatroid as lm
from lassomatroid import lasso

quartet = lm.tree_from_newick("((a,b),(c,d));")

for sides in (({"a", "c"}, {"b", "d"}), ({"a", "b"}, {"c", "d"})):
    two = lm.cross_cords(*sides)
    print(f"sides {sorted(sides[0])} | {sorted(sides[1])}:",
          "topological lasso" if lm.is_topological_lasso(quartet, two)
          else "fails (a cherry sits inside one side)")

print("\nA 6-leaf caterpillar with cherries ab and ef:")
cat = lm.caterpillar_tree("abcdef")
side_a, side_b = {"a", "d", "f"}, {"b", "c", "e"}
two = lm.cross_cords(side_a, side_b)
print("sides", sorted(side_a), "|", sorted(side_b))
print("  split check (each cherry meets both sides):",
      lasso.split_check(cat, side_a, side_b))
print("  exact topological decision:", lm.is_topological_lasso(cat, two))

report = lasso.bipartite_analysis(cat, two)
print("  rank:", report.rank, "=", len(cat.edge_ids), "- 1 ->",
      "a hyperplane" if report.is_hyperplane else "lower rank")
print("  the one vanishing direction weights the two sides +1 / -1:")
print("   ", {eid: w for eid, w in sorted(report.side_weighting.items()) if w})
extension = sorted(report.lasso_extensions)[0]
print("  adding a same-side cord such as", "".join(extension),
      "upgrades it to a strong lasso:",
      lm.lasso_report(cat, two | {extension}).strong)

print("\nPointed covers: anchor every leaf to x, then pick one cord across")
print("each interior vertex away from the anchor; always a strong lasso.")
for cover in lasso.pointed_covers(quartet, "d"):
    print("  anchor d:", " ".join(a + b for a, b in sorted(cover)),
          "->", lm.lasso_report(quartet, cover).strong and "strong")
