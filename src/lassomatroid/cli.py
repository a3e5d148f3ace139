"""Command-line surface.

Every subcommand reads a tree (--tree FILE or --newick TEXT), most read a
cord file (--cords FILE: one "label label" pair per line, '#' comments and
blank lines ignored), and all emit either line-oriented text or, with
--json, one JSON object per result line.  Output ordering is deterministic:
cords sort lexicographically and trees print in canonical Newick.

Exit codes: 0 success, 1 negative verdict of a predicate, 2 usage or parse
error, 3 desk-scale bound exceeded, 4 internal error (a bug: the traceback
and an "internal error:" line go to stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from . import lasso, matroid, reconstruct, stargraph
from .errors import NewickError, ScaleBoundError
from .tree import cord, enumerate_xtrees, parse_newick, quartet_topology

ENV_MAX_LEAVES = "LASSO_MATROID_MAX_LEAVES"


class _UsageError(Exception):
    pass


def _load_tree(args):
    if getattr(args, "newick", None):
        text = args.newick
    elif getattr(args, "tree", None):
        try:
            with open(args.tree) as fh:
                text = fh.read().strip()
        except OSError as exc:
            raise _UsageError(f"cannot read tree file: {exc}")
    else:
        raise _UsageError("a tree is required: pass --newick TEXT or --tree FILE")
    tree, weighting = parse_newick(text)
    return tree, weighting


def read_cord_file(handle, leaves):
    """Parse the cord file format: 'label label' lines, '#' comments."""
    cords = set()
    leafset = set(leaves)
    for lineno, raw in enumerate(handle, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise _UsageError(f"cord file line {lineno}: expected two labels, got {line!r}")
        a, b = parts
        if a not in leafset or b not in leafset:
            raise _UsageError(f"cord file line {lineno}: {a!r} {b!r} are not leaves of the tree")
        if a == b:
            raise _UsageError(f"cord file line {lineno}: a cord needs two distinct labels")
        cords.add(cord(a, b))
    return frozenset(cords)


def _load_cords(args, tree):
    if getattr(args, "cords", None) is None:
        raise _UsageError("this command needs --cords FILE")
    if args.cords == "-":
        return read_cord_file(sys.stdin, tree.leaves)
    try:
        with open(args.cords) as fh:
            return read_cord_file(fh, tree.leaves)
    except OSError as exc:
        raise _UsageError(f"cannot read cord file: {exc}")


def _max_leaves(args, fallback):
    if getattr(args, "max_leaves", None) is not None:
        return args.max_leaves
    env = os.environ.get(ENV_MAX_LEAVES)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _UsageError(f"{ENV_MAX_LEAVES} must be an integer, got {env!r}")
    return fallback


def _cord_text(c):
    return f"{c[0]}-{c[1]}"


def _cordset_text(cords):
    return " ".join(_cord_text(c) for c in sorted(cords))


def _cordset_json(cords):
    return [list(c) for c in sorted(cords)]


def _emit(args, text, record):
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        print(text)


def _find_edge_by_split(tree, split_text):
    """Interior edge whose removal splits the leaves as 'a,b|c,d'."""
    try:
        left, right = split_text.split("|")
        side_a = frozenset(x for x in left.split(",") if x)
        side_b = frozenset(x for x in right.split(",") if x)
    except ValueError:
        raise _UsageError("--split expects 'a,b|c,d'")
    leaves = frozenset(tree.leaves)
    if side_a | side_b != leaves or side_a & side_b:
        raise _UsageError("--split must partition the leaf set")
    for eid, ends in tree.edges.items():
        if tree.side(eid, next(iter(ends))) in (side_a, side_b):
            return eid
    raise _UsageError(f"no edge induces the split {split_text!r}")


def _predicate_exit(args, flags):
    """Exit 1 when the field named by --predicate is false."""
    name = getattr(args, "predicate", None)
    if name is None:
        return 0
    value = flags.get(name)
    if value is None:
        raise ScaleBoundError(f"predicate {name!r} is undecided at this scale")
    return 0 if value else 1


# -- subcommand bodies ---------------------------------------------------------


def _cmd_rank(args):
    tree, _ = _load_tree(args)
    cords = _load_cords(args, tree)
    r = matroid.rank_of(tree, cords)
    _emit(args, f"rank: {r}", {"rank": r})
    return 0


def _cmd_verdict(args):
    tree, _ = _load_tree(args)
    cords = _load_cords(args, tree)
    v = matroid.verdict(tree, cords)
    record = {"rank": v.rank, "independent": v.independent,
              "lasso": v.lasso, "basis": v.basis}
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        for key in ("rank", "independent", "lasso", "basis"):
            print(f"{key}: {str(record[key]).lower()}")
    return _predicate_exit(args, record)


def _cmd_closure(args):
    tree, _ = _load_tree(args)
    cords = _load_cords(args, tree)
    for c in sorted(matroid.closure(tree, cords)):
        _emit(args, _cord_text(c), {"cord": list(c)})
    return 0


def _cmd_coloops(args):
    tree, _ = _load_tree(args)
    for c in sorted(matroid.coloops(tree)):
        _emit(args, _cord_text(c), {"cord": list(c)})
    return 0


def _cmd_bases(args):
    tree, _ = _load_tree(args)
    stream = matroid.bases(tree, max_leaves=_max_leaves(args, 7))
    if args.count:
        print(sum(1 for _ in stream))
        return 0
    for b in stream:
        _emit(args, _cordset_text(b), {"basis": _cordset_json(b)})
    return 0


def _cmd_circuits(args):
    tree, _ = _load_tree(args)
    bound = _max_leaves(args, 7)
    if tree.n_leaves > bound:
        raise ScaleBoundError(
            f"{tree.n_leaves} leaves exceeds the circuit-enumeration bound of {bound}")
    for c in matroid.circuits(tree, max_size=args.max_size):
        _emit(args, _cordset_text(c), {"circuit": _cordset_json(c)})
    return 0


def _cmd_star(args):
    tree, _ = _load_tree(args)
    cords = _load_cords(args, tree)
    labels = tree.leaves
    report = stargraph.analyze(labels, cords)
    flags = {
        "lasso": stargraph.star_is_lasso(labels, cords),
        "independent": stargraph.star_is_independent(labels, cords),
        "basis": stargraph.star_is_basis(labels, cords),
        "circuit": stargraph.star_is_circuit(labels, cords),
        "rank": stargraph.star_rank(labels, cords),
    }
    closure = stargraph.star_closure(labels, cords)
    if args.json:
        record = dict(flags)
        record["closure"] = _cordset_json(closure)
        record["components"] = [
            {"vertices": sorted(comp.vertices), "edges": _cordset_json(comp.edges),
             "bipartite": comp.bipartite, "cycles": comp.cycle_count}
            for comp in report.components
        ]
        print(json.dumps(record, sort_keys=True))
    else:
        for comp in report.components:
            kind = "bipartite" if comp.bipartite else "odd"
            print(f"component: {','.join(sorted(comp.vertices))} "
                  f"[{kind}, cycles={comp.cycle_count}]")
        for key in ("rank", "lasso", "independent", "basis", "circuit"):
            print(f"{key}: {str(flags[key]).lower()}")
        print(f"closure: {_cordset_text(closure)}")
    return _predicate_exit(args, flags)


def _cmd_contract_bases(args):
    tree, _ = _load_tree(args)
    eid = _find_edge_by_split(tree, args.split)
    if not tree.is_interior_edge(eid):
        raise _UsageError("--split selects a pendant edge; pick an interior split")
    bound = _max_leaves(args, 7)
    for b in matroid.contraction_bases(tree, eid, max_leaves=bound):
        _emit(args, _cordset_text(b), {"basis": _cordset_json(b)})
    return 0


def _cmd_pointed_covers(args):
    tree, _ = _load_tree(args)
    if args.leaf not in tree.leaves:
        raise _UsageError(f"--leaf {args.leaf!r} is not a leaf of the tree")
    for cover in lasso.pointed_covers(tree, args.leaf):
        _emit(args, _cordset_text(cover), {"cover": _cordset_json(cover)})
    return 0


def _cmd_lasso(args):
    tree, _ = _load_tree(args)
    cords = _load_cords(args, tree)
    bound = _max_leaves(args, 6)
    report = lasso.lasso_report(tree, cords, max_leaves=bound,
                                pendant_strict=args.pendant_strict)
    undecided = "undecided (scale)"
    record = {
        "rank": report.rank,
        "edge_weight": report.edge_weight,
        "topological": report.topological,
        "strong": report.strong,
        "bipartition": ([sorted(report.bipartition[0]), sorted(report.bipartition[1])]
                        if report.bipartition else None),
    }
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        print(f"rank: {report.rank}")
        print(f"edge-weight: {str(report.edge_weight).lower()}")
        print(f"topological: {undecided if report.topological is None else str(report.topological).lower()}")
        print(f"strong: {undecided if report.strong is None else str(report.strong).lower()}")
        if report.bipartition:
            a, b = report.bipartition
            print(f"bipartition: {','.join(sorted(a))} | {','.join(sorted(b))}")
    flags = {"edge-weight": report.edge_weight, "topological": report.topological,
             "strong": report.strong}
    return _predicate_exit(args, flags)


def _cmd_quartets(args):
    tree, _ = _load_tree(args)
    import itertools
    for four in itertools.combinations(tree.leaves, 4):
        topo = quartet_topology(tree, four)
        if topo is None:
            continue
        (a, b), (c, d) = topo
        _emit(args, f"{a}-{b} | {c}-{d}", {"quartet": [[a, b], [c, d]]})
    return 0


def _cmd_reconstruct(args):
    if args.oracle_from:
        source, _ = parse_newick(args.oracle_from)
    else:
        source, _ = _load_tree(args)
    bound = _max_leaves(args, 8)
    rebuilt = reconstruct.tree_from_oracle(matroid.rank_oracle(source), source.leaves,
                                           max_leaves=bound)
    _emit(args, rebuilt.to_newick(), {"newick": rebuilt.to_newick()})
    return 0


def _cmd_binary_check(args):
    tree, _ = _load_tree(args)
    bound = _max_leaves(args, 6)
    verdict = reconstruct.is_binary_matroid(tree, max_leaves=bound)
    if args.json:
        record = {"binary": verdict.is_binary}
        if verdict.violation:
            record["violation"] = [_cordset_json(v) for v in verdict.violation]
        print(json.dumps(record, sort_keys=True))
    else:
        print(f"binary: {str(verdict.is_binary).lower()}")
        if verdict.violation:
            c1, c2 = verdict.violation
            print(f"violating circuits: {_cordset_text(c1)} / {_cordset_text(c2)}")
    return 0 if verdict.is_binary else 1


def _cmd_enumerate_trees(args):
    labels = [x for x in args.leaves.split(",") if x]
    if len(set(labels)) != len(labels):
        raise _UsageError("--leaves must be distinct")
    bound = _max_leaves(args, 8)
    stream = enumerate_xtrees(labels, max_leaves=bound)
    if args.count:
        print(sum(1 for _ in stream))
        return 0
    for t in stream:
        _emit(args, t.to_newick(), {"newick": t.to_newick()})
    return 0


# -- wiring ---------------------------------------------------------------------


def _add_tree_args(sub):
    sub.add_argument("--tree", help="file containing a Newick tree")
    sub.add_argument("--newick", help="Newick text for the tree")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lasso-matroid",
        description="Matroid of leaf-pair path vectors on a tree: ranks, lassos, "
                    "bases, circuits, and tree recovery, all in exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, tree=True, cords=False, max_leaves=False, **extra):
        p = sub.add_parser(name)
        if tree:
            _add_tree_args(p)
        if cords:
            p.add_argument("--cords", help="cord file ('label label' per line, '-' for stdin)")
        if max_leaves:
            p.add_argument("--max-leaves", type=int,
                           help=f"desk-scale bound (overrides ${ENV_MAX_LEAVES})")
        p.add_argument("--json", action="store_true", help="one JSON object per line")
        p.set_defaults(fn=fn)
        return p

    add("rank", _cmd_rank, cords=True)
    p = add("verdict", _cmd_verdict, cords=True)
    p.add_argument("--predicate", choices=["independent", "lasso", "basis"],
                   help="exit 1 when this flag is false")
    add("closure", _cmd_closure, cords=True)
    add("coloops", _cmd_coloops)
    p = add("bases", _cmd_bases, max_leaves=True)
    p.add_argument("--count", action="store_true", help="print only the number of bases")
    p = add("circuits", _cmd_circuits, max_leaves=True)
    p.add_argument("--max-size", type=int, default=None)
    p = add("star", _cmd_star, cords=True)
    p.add_argument("--predicate", choices=["lasso", "independent", "basis", "circuit"],
                   help="exit 1 when this flag is false")
    p = add("contract-bases", _cmd_contract_bases, max_leaves=True)
    p.add_argument("--split", required=True,
                   help="interior edge named by its leaf split, e.g. 'a,b|c,d'")
    p = add("pointed-covers", _cmd_pointed_covers)
    p.add_argument("--leaf", required=True, help="anchor leaf")
    p = add("lasso", _cmd_lasso, cords=True, max_leaves=True)
    p.add_argument("--pendant-strict", action="store_true",
                   help="require strictly positive pendant edges in the topological decider")
    p.add_argument("--predicate", choices=["edge-weight", "topological", "strong"],
                   help="exit 1 when this flag is false")
    add("quartets", _cmd_quartets)
    p = add("reconstruct", _cmd_reconstruct, max_leaves=True)
    p.add_argument("--oracle-from", help="Newick tree whose rank oracle to reconstruct from")
    add("binary-check", _cmd_binary_check, max_leaves=True)
    p = add("enumerate-trees", _cmd_enumerate_trees, tree=False, max_leaves=True)
    p.add_argument("--leaves", required=True, help="comma-separated leaf labels")
    p.add_argument("--count", action="store_true")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NewickError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ScaleBoundError as exc:
        print(f"scale bound: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 means a negative verdict, so a bug must not end with it
        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())