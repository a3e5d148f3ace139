"""Command-line surface.

Every subcommand reads a tree (--tree FILE or --newick TEXT), most read a
cord file (--cords FILE: one "label label" pair per line, '#' comments and
blank lines ignored), and all emit either line-oriented text or, with
--json, one JSON object per result line.  Output ordering is deterministic:
cords sort lexicographically and trees print in canonical Newick.

A run builds only the parser of the subcommand its first argument names.
With no argument, -h or an unknown name it builds the full parser, and
arguments that one subcommand's parser leaves over are parsed again by the
full parser, so their error shows the usage line that names every
subcommand.

Bounded subcommands pass --max-leaves, else $LASSO_MATROID_MAX_LEAVES, to
the library; with neither, the library's own default bound applies.

Exit codes: 0 success, 1 negative verdict of a predicate, 2 usage or parse
error, 3 desk-scale bound exceeded, 4 internal error (a bug: the traceback
and an "internal error:" line go to stderr).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import traceback

from . import lasso, matroid, reconstruct, stargraph
from .errors import NewickError, ScaleBoundError
from .tree import LABEL_RE, XTree, cord, enumerate_xtrees, parse_newick, quartet_topology

ENV_MAX_LEAVES = "LASSO_MATROID_MAX_LEAVES"


class _UsageError(ValueError):
    pass


def _load(args):
    """The tree, and the cords when the subcommand takes --cords (else None)."""
    if args.newick:
        text = args.newick
    elif args.tree:
        try:
            with open(args.tree) as fh:
                text = fh.read().strip()
        except OSError as exc:
            raise _UsageError(f"cannot read tree file: {exc}")
    else:
        raise _UsageError("a tree is required: pass --newick TEXT or --tree FILE")
    tree, _ = parse_newick(text)
    if "cords" not in args:
        return tree, None
    if args.cords is None:
        raise _UsageError("this command needs --cords FILE")
    if args.cords == "-":
        return tree, read_cord_file(sys.stdin, tree.leaves)
    try:
        with open(args.cords) as fh:
            return tree, read_cord_file(fh, tree.leaves)
    except OSError as exc:
        raise _UsageError(f"cannot read cord file: {exc}")


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


def _bound(args):
    """``max_leaves`` from --max-leaves, else from the environment; with
    neither, nothing, so the library's own default applies."""
    if args.max_leaves is not None:
        return {"max_leaves": args.max_leaves}
    env = os.environ.get(ENV_MAX_LEAVES)
    if env is None:
        return {}
    try:
        return {"max_leaves": int(env)}
    except ValueError:
        raise _UsageError(f"{ENV_MAX_LEAVES} must be an integer, got {env!r}")


def _text(cords):
    return " ".join(f"{a}-{b}" for a, b in sorted(cords))


def _json(cords):
    return [list(c) for c in sorted(cords)]


def _word(value):
    return "undecided (scale)" if value is None else str(value).lower()


def _fields(record, keys):
    """'key: value' lines; 'edge-weight' reads the record's 'edge_weight'."""
    return [f"{key}: {_word(record[key.replace('-', '_')])}" for key in keys]


def _emit(args, text, record):
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        print(text)


def _report(args, text, record):
    """Emit one report; exit 1 when the record's field named by --predicate
    is false."""
    _emit(args, text, record)
    name = getattr(args, "predicate", None)
    if name is None:
        return 0
    value = record[name.replace("-", "_")]
    if value is None:
        raise ScaleBoundError(f"predicate {name!r} is undecided at this scale")
    return 0 if value else 1


def _emit_each(args, key, items, text=_text, value=_json):
    """One line per item, {key: value(item)} or text(item), or with --count
    only how many items there are."""
    if getattr(args, "count", False):
        n = sum(1 for _ in items)
        return _report(args, n, n)
    for item in items:
        _emit(args, text(item), {key: value(item)})
    return 0


def _find_edge_by_split(tree, split_text):
    """Interior edge whose removal splits the leaves as 'a,b|c,d'."""
    try:
        left, right = split_text.split("|")
        side_a = frozenset(x for x in left.split(",") if x)
        side_b = frozenset(x for x in right.split(",") if x)
    except ValueError:
        raise _UsageError("--split expects 'a,b|c,d'")
    if side_a | side_b != frozenset(tree.leaves) or side_a & side_b:
        raise _UsageError("--split must partition the leaf set")
    for eid, ends in tree.edges.items():
        if tree.side(eid, next(iter(ends))) in (side_a, side_b):
            return eid
    raise _UsageError(f"no edge induces the split {split_text!r}")


# -- subcommand bodies ---------------------------------------------------------


def _cmd_rank(args):
    tree, cords = _load(args)
    r = matroid.rank_of(tree, cords)
    return _report(args, f"rank: {r}", {"rank": r})


def _cmd_verdict(args):
    tree, cords = _load(args)
    v = matroid.verdict(tree, cords)
    record = {"rank": v.rank, "independent": v.independent,
              "lasso": v.lasso, "basis": v.basis}
    return _report(args, "\n".join(_fields(record, record)), record)


def _cmd_closure(args):
    tree, cords = _load(args)
    return _emit_each(args, "cord", sorted(matroid.closure(tree, cords)), "-".join, list)


def _cmd_coloops(args):
    tree, _ = _load(args)
    return _emit_each(args, "cord", sorted(matroid.coloops(tree)), "-".join, list)


def _cmd_bases(args):
    tree, _ = _load(args)
    return _emit_each(args, "basis", matroid.bases(tree, **_bound(args)))


def _cmd_circuits(args):
    tree, _ = _load(args)
    return _emit_each(args, "circuit",
                      matroid.circuits(tree, max_size=args.max_size, **_bound(args)))


def _cmd_star(args):
    tree, cords = _load(args)
    interior = len(tree.interior_vertices)
    if interior > 1:
        raise _UsageError(f"star rules need a star tree, with one interior vertex; "
                          f"this tree has {interior}")
    labels = tree.leaves
    components = stargraph.analyze(labels, cords).components
    closure = stargraph.star_closure(labels, cords)
    record = {
        "lasso": stargraph.star_is_lasso(labels, cords),
        "independent": stargraph.star_is_independent(labels, cords),
        "basis": stargraph.star_is_basis(labels, cords),
        "circuit": stargraph.star_is_circuit(labels, cords),
        "rank": stargraph.star_rank(labels, cords),
        "closure": _json(closure),
        "components": [
            {"vertices": sorted(comp.vertices), "edges": _json(comp.edges),
             "bipartite": comp.bipartite, "cycles": comp.cycle_count}
            for comp in components
        ],
    }
    text = [f"component: {','.join(sorted(comp.vertices))} "
            f"[{'bipartite' if comp.bipartite else 'odd'}, cycles={comp.cycle_count}]"
            for comp in components]
    text += _fields(record, ("rank", "lasso", "independent", "basis", "circuit"))
    text.append(f"closure: {_text(closure)}")
    return _report(args, "\n".join(text), record)


def _cmd_contract_bases(args):
    tree, _ = _load(args)
    eid = _find_edge_by_split(tree, args.split)
    if not tree.is_interior_edge(eid):
        raise _UsageError("--split selects a pendant edge; pick an interior split")
    return _emit_each(args, "basis", matroid.contraction_bases(tree, eid, **_bound(args)))


def _cmd_pointed_covers(args):
    tree, _ = _load(args)
    if args.leaf not in tree.leaves:
        raise _UsageError(f"--leaf {args.leaf!r} is not a leaf of the tree")
    return _emit_each(args, "cover", lasso.pointed_covers(tree, args.leaf))


def _cmd_lasso(args):
    tree, cords = _load(args)
    report = lasso.lasso_report(tree, cords, **_bound(args))
    record = {
        "rank": report.rank,
        "edge_weight": report.edge_weight,
        "topological": report.topological,
        "strong": report.strong,
        "bipartition": ([sorted(side) for side in report.bipartition]
                        if report.bipartition else None),
    }
    text = _fields(record, ("rank", "edge-weight", "topological", "strong"))
    if report.bipartition:
        text.append("bipartition: " + " | ".join(",".join(side) for side in record["bipartition"]))
    return _report(args, "\n".join(text), record)


def _cmd_quartets(args):
    tree, _ = _load(args)
    for four in itertools.combinations(tree.leaves, 4):
        topo = quartet_topology(tree, four)
        if topo is None:
            continue
        (a, b), (c, d) = topo
        _emit(args, f"{a}-{b} | {c}-{d}", {"quartet": [[a, b], [c, d]]})
    return 0


def _cmd_reconstruct(args):
    source = parse_newick(args.oracle_from)[0] if args.oracle_from else _load(args)[0]
    rebuilt = reconstruct.tree_from_oracle(matroid.rank_oracle(source), source.leaves,
                                           **_bound(args))
    return _report(args, rebuilt.to_newick(), {"newick": rebuilt.to_newick()})


def _cmd_binary_check(args):
    tree, _ = _load(args)
    verdict = reconstruct.is_binary_matroid(tree, **_bound(args))
    record = {"binary": verdict.is_binary}
    text = _fields(record, record)
    if verdict.violation:
        record["violation"] = [_json(v) for v in verdict.violation]
        text.append("violating circuits: " + " / ".join(map(_text, verdict.violation)))
    return _report(args, "\n".join(text), record)


def _cmd_enumerate_trees(args):
    labels = [x for x in args.leaves.split(",") if x]
    for x in labels:
        if not LABEL_RE.fullmatch(x):
            raise _UsageError(f"--leaves label {x!r} is not a Newick label "
                              "(letters, digits and underscores only)")
    if len(set(labels)) != len(labels):
        raise _UsageError("--leaves must be distinct")
    return _emit_each(args, "newick", enumerate_xtrees(labels, **_bound(args)),
                      XTree.to_newick, XTree.to_newick)


# -- wiring ---------------------------------------------------------------------


def build_parser(command=None):
    """The argument parser; with a subcommand name, only that subcommand's.

    The top-level parser is the same either way, but it holds just the one
    subparser, so its usage line names only that subcommand.  An unknown
    name builds the full parser.
    """
    parser = argparse.ArgumentParser(
        prog="lasso-matroid",
        description="Matroid of leaf-pair path vectors on a tree: ranks, lassos, "
                    "bases, circuits, and tree recovery, all in exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, tree=True, cords=False, max_leaves=False, predicate=None):
        if command not in (None, name):
            return None
        p = sub.add_parser(name)
        if tree:
            p.add_argument("--tree", help="file containing a Newick tree")
            p.add_argument("--newick", help="Newick text for the tree")
        if cords:
            p.add_argument("--cords", help="cord file ('label label' per line, '-' for stdin)")
        if max_leaves:
            p.add_argument("--max-leaves", type=int,
                           help=f"desk-scale bound (overrides ${ENV_MAX_LEAVES})")
        p.add_argument("--json", action="store_true", help="one JSON object per line")
        if predicate:
            p.add_argument("--predicate", choices=predicate,
                           help="exit 1 when this flag is false")
        p.set_defaults(fn=fn)
        return p

    add("rank", _cmd_rank, cords=True)
    add("verdict", _cmd_verdict, cords=True, predicate=["independent", "lasso", "basis"])
    add("closure", _cmd_closure, cords=True)
    add("coloops", _cmd_coloops)
    if p := add("bases", _cmd_bases, max_leaves=True):
        p.add_argument("--count", action="store_true", help="print only the number of bases")
    if p := add("circuits", _cmd_circuits, max_leaves=True):
        p.add_argument("--max-size", type=int, default=None)
    add("star", _cmd_star, cords=True, predicate=["lasso", "independent", "basis", "circuit"])
    if p := add("contract-bases", _cmd_contract_bases, max_leaves=True):
        p.add_argument("--split", required=True,
                       help="interior edge named by its leaf split, e.g. 'a,b|c,d'")
    if p := add("pointed-covers", _cmd_pointed_covers):
        p.add_argument("--leaf", required=True, help="anchor leaf")
    add("lasso", _cmd_lasso, cords=True, max_leaves=True,
        predicate=["edge-weight", "topological", "strong"])
    add("quartets", _cmd_quartets)
    if p := add("reconstruct", _cmd_reconstruct, max_leaves=True):
        p.add_argument("--oracle-from", help="Newick tree whose rank oracle to reconstruct from")
    if p := add("binary-check", _cmd_binary_check, max_leaves=True):
        p.set_defaults(predicate="binary")
    if p := add("enumerate-trees", _cmd_enumerate_trees, tree=False, max_leaves=True):
        p.add_argument("--leaves", required=True, help="comma-separated leaf labels")
        p.add_argument("--count", action="store_true")
    if not sub.choices:
        return build_parser()
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        args, extra = build_parser(argv[0] if argv else None).parse_known_args(argv)
        if extra:
            # the full parser reports them, under a usage line naming every subcommand
            build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 0 if exc.code == 0 else 2
    try:
        return args.fn(args)
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