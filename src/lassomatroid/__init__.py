"""Exact matroid of leaf-pair distances on a phylogenetic tree.

The cord set of a tree (all unordered leaf pairs) carries a representable
matroid: each cord contributes the 0/1 vector of edges on its leaf-to-leaf
path, and a cord set determines every edge weight from distances exactly
when those vectors span the edge space.  This package builds that matroid
with exact rational arithmetic and provides its rank oracle, bases,
circuits, closures and co-loops, the purely graph-theoretic rules valid on
star trees, edge-weight / topological / strong lasso deciders, and recovery
of the tree from rank queries alone.
"""

from .errors import NewickError, ScaleBoundError
from .exact import LinearSystem, feasible, kernel_basis, rank, solve_coordinates
from .lasso import (BipartiteReport, LassoReport, TopologicalRankReport,
                    bipartite_analysis, is_minimal_strong_lasso, is_t_cover,
                    is_topological_lasso, lasso_report, leaf_bipartitions,
                    pointed_covers, split_check, topological_rank_structure)
from .matroid import (MatroidVerdict, bases, circuits, closure, coloops,
                      contract_rank_decomposition, contraction_bases,
                      contraction_extends, rank_of, rank_oracle, verdict)
from .reconstruct import (BinaryMatroidVerdict, NonbinaryWitness, QuartetSet,
                          is_binary_matroid, matroids_equal, near_caterpillar_shape,
                          nonbinary_witness, quartet_set_from_oracle,
                          quartet_set_of_tree, tree_from_oracle)
from .stargraph import (ComponentReport, analyze, star_closure, star_is_basis,
                        star_is_circuit, star_is_independent, star_is_lasso,
                        star_rank)
from .tree import (XTree, all_cords, are_equivalent, caterpillar_tree, cord,
                   cross_cords, enumerate_binary_xtrees, enumerate_xtrees,
                   parse_newick, quartet_tree, quartet_topology, restrict_weighting,
                   star_tree, tree_from_newick)

__version__ = "0.1.0"
