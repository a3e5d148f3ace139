"""The four workloads: seeded inputs, the timed call, and its reference check.

A workload yields rounds of operations.  Every round has the same mix of
input classes (leaf count, cord-set kind, command), so runs on different
seeds differ only in the random instances, not in the mix.  Inputs are made
here; the package receives only Newick text, parsed trees and cord lists.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass
from typing import Callable

import inputs
import reference
from lassomatroid import cli, lasso, matroid, reconstruct
from lassomatroid.tree import are_equivalent, tree_from_newick


@dataclass
class Op:
    kind: str
    call: Callable[[], object]           # the timed part
    check: Callable[[object], str | None]  # None when the output is right
    records: Callable[[object], int]     # result records the call produced


def _one(_out):
    return 1


def fixed_rng():
    """Generator for warm-up inputs: the same on every seed, so set-up cost is too."""
    return random.Random(0)


class Workload:
    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.counts = {}

    def count(self, key):
        self.counts[key] = self.counts.get(key, 0) + 1


# Every unlabelled 6-leaf shape with an interior edge, paired with each size
# of the smaller side its contracted edge can have.  The basis count depends
# on the shape (1,518-2,304 bases with one interior edge, 500-576 with three),
# so a round holds one labelled instance of each class and costs about the
# same on every seed.
SIX_LEAF_CLASSES = ((), (2,), (3,), (2, 2), (2, 3), (2, 2, 2), (2, 2, 3))
BASES_CLASSES = [(sig, k) for sig in SIX_LEAF_CLASSES if sig for k in sorted(set(sig))]


class Bases(Workload):
    """Basis DFS and the edge-collapse recursion on 6-leaf shapes, plus the 7-leaf star."""

    def warmups(self):
        return [self._shape_pair((2, 3), 2, fixed_rng()), self._star()]

    def rounds(self):
        yield [self._star()]
        while True:
            yield [self._shape_pair(sig, k) for sig, k in BASES_CLASSES]

    def _star(self):
        shape = inputs.star("abcdefg")
        t = tree_from_newick(shape.newick())
        return Op("bases7_star", lambda: list(matroid.bases(t)),
                  lambda out: _check_bases(shape, out), len)

    def _shape_pair(self, sig, k, rng=None):
        """Both routes on one shape of class ``sig`` and one interior edge with
        ``k`` leaves on its smaller side; the pair is one operation."""
        rng = rng or self.rng
        shape = inputs.shape_of_class(rng, "abcdef", sig)
        t = tree_from_newick(shape.newick())
        leaf_vertices = {t.leaf_vertex(x) for x in t.leaves}
        sizes = inputs.side_sizes({e: tuple(ends) for e, ends in t.edges.items()}, leaf_vertices)
        f = rng.choice(sorted(e for e, size in sizes.items() if size == k))

        def call():
            return list(matroid.bases(t)), list(matroid.contraction_bases(t, f))

        def check(out):
            dfs, collapse = out
            if len(set(collapse)) != len(collapse):
                return "collapse recursion emitted a basis twice"
            if set(collapse) != set(dfs):
                return "collapse recursion and basis DFS disagree"
            return _check_bases(shape, dfs)

        return Op("bases6_both_routes", call, check, lambda out: len(out[0]) + len(out[1]))


def _check_bases(shape, out):
    if len(set(out)) != len(out):
        return "a basis was emitted twice"
    m = len(shape.edges)
    for b in out:
        if len(b) != m or reference.rank(shape, sorted(b)) != m:
            return f"{sorted(b)} is not a basis"
    return None


# Per group of five 5-leaf inputs: three positive verdicts (which try every
# competing shape, so their cost is steady) and two negative ones.  Random
# sets come at twice the rate of two-sided ones because a leaf set has only
# 60 bipartitions that split both cherries of a binary 5-leaf shape.
FIVE_LEAF_MIX = ("split", "unsplit", "cover", "cover", "noncover")
# The three kinds of 6-leaf two-sided set that split every cherry: 3|3 on the
# snowflake (three cherries round one vertex), 3|3 and 2|4 on the
# caterpillar, as (shape class, smaller side).  Their costs differ, so
# rounds take them in turn; random cord sets take their sizes, 6-15, in turn.
SIX_LEAF_SPLITS = (((2, 2, 2), 3), ((2, 2, 3), 3), ((2, 2, 3), 2))
COVER_SIZES = range(6, 16)
# Several leaf sets per size give enough distinct inputs; each is warmed up.
LABEL_SETS = {5: ("abcde", "fghij", "klmno", "pqrst"), 6: ("abcdef", "ghijkl")}


class Topo(Workload):
    """Brute-force topological-lasso verdicts on distinct 5- and 6-leaf inputs.

    Each round has one 6-leaf two-sided set that splits every cherry, of the
    next kind in ``SIX_LEAF_SPLITS``, and six groups of 5-leaf inputs mixed
    as ``FIVE_LEAF_MIX``.  No input repeats
    within a run, so the decider's memo never answers a timed call; when a
    class runs out of fresh inputs the run ends early.
    """

    def __init__(self, seed):
        super().__init__(seed)
        self.seen = set()
        self.next_set = {n: 0 for n in LABEL_SETS}

    def warmups(self):
        """Per leaf set, a connected cord set whose first competing shape agrees."""
        ops = []
        for labels in LABEL_SETS[5] + LABEL_SETS[6]:
            shape = inputs.random_binary(fixed_rng(), labels)
            cords = [inputs.cord(labels[0], x) for x in labels[1:]]
            self.seen.add((shape.splits(), tuple(cords)))
            t = tree_from_newick(shape.newick())
            ops.append(Op(f"warmup{len(labels)}",
                          lambda t=t, c=cords: lasso.lasso_report(t, c), None, _one))
        return ops

    def rounds(self):
        sizes = itertools.cycle(COVER_SIZES)
        try:
            for r in itertools.count():
                ops = [self._op(6, "split", SIX_LEAF_SPLITS[r % len(SIX_LEAF_SPLITS)])]
                for i in range(6):
                    for kind in FIVE_LEAF_MIX:
                        k = next(sizes) if kind == "cover" else 6 + i % 3
                        ops.append(self._op(5, kind, k))
                yield ops
        except LookupError:
            return

    def _draw(self, labels, kind, k):
        """One input of the given class.

        Two-sided sets: "split" separates the two leaves of every cherry (a
        binary shape always has such a bipartition), "unsplit" keeps one
        cherry on one side; a 6-leaf "split" has the shape class and smaller
        side ``k``.  Random sets: "cover" (binary shape, ``k`` cords) meets
        every edge pair at every interior vertex, "noncover" (``k`` cords)
        misses one.  The class fixes the round's mix of verdicts.
        """
        rng = self.rng
        while True:
            if len(labels) == 6:
                sig, side = k
                shape = inputs.shape_of_class(rng, labels, sig)
            else:
                shape = inputs.random_shape(rng, labels,
                                            0.0 if kind in ("split", "cover") else 0.3)
            if kind in ("cover", "noncover"):
                cords = inputs.random_cords(rng, labels, k)
                if reference.is_cover(shape, cords) == (kind == "cover"):
                    return shape, cords, None
            else:
                side_a, side_b = inputs.random_bipartition(rng, labels)
                if len(labels) == 6 and min(len(side_a), len(side_b)) != side:
                    continue
                if reference.splits_every_cherry(shape, side_a) == (kind == "split"):
                    return shape, inputs.cross_cords(side_a, side_b), (side_a, side_b)

    def _op(self, n, kind, k):
        sets = LABEL_SETS[n]
        labels = sets[self.next_set[n] % len(sets)]
        self.next_set[n] += 1
        for _ in range(10_000):
            shape, cords, sides = self._draw(labels, kind, k)
            key = (shape.splits(), tuple(cords))
            if key not in self.seen:
                self.seen.add(key)
                break
        else:
            raise LookupError(f"no fresh {kind} input on {labels}")
        t = tree_from_newick(shape.newick())

        def check(report):
            r = reference.rank(shape, cords)
            if report.rank != r or report.edge_weight != (r == len(shape.edges)):
                return "rank or edge-weight verdict differs from the reference"
            if report.strong != (report.edge_weight and report.topological):
                return "strong is not edge-weight and topological"
            if report.topological and not reference.connected(shape.leaves, cords):
                return "positive verdict on a disconnected cord graph"
            if sides is not None and report.topological != lasso.split_check(t, *sides):
                return "two-sided verdict differs from split_check"
            return None

        return Op(f"topo{n}_{kind}", lambda: lasso.lasso_report(t, cords), check, _one)


class Recover(Workload):
    """Tree recovery from a counted rank oracle on 6- and 7-leaf shapes.

    Each round recovers one labelled shape of every unlabelled 6-leaf class.
    The one 7-leaf recovery per run is a caterpillar, as a 7-leaf recovery
    costs about thirty 6-leaf ones and its cost must not depend on the seed.
    """

    def warmups(self):
        rng = fixed_rng()
        return [self._op(inputs.shape_of_class(rng, "abcdef", (2, 3))),
                self._op(inputs.caterpillar(rng, "abcdefg"))]

    def rounds(self):
        yield [self._op(inputs.caterpillar(self.rng, "abcdefg"))]
        while True:
            yield [self._op(inputs.shape_of_class(self.rng, "abcdef", sig))
                   for sig in SIX_LEAF_CLASSES]

    def _op(self, shape):
        source = tree_from_newick(shape.newick())
        oracle = matroid.rank_oracle(source)

        def counted(cords):
            self.count("reconstruct.rank_queries")
            return oracle(cords)

        def check(out):
            if not are_equivalent(out, source) or out.to_newick() != source.to_newick():
                return f"recovered {out.to_newick()} from {source.to_newick()}"
            return None

        return Op(f"recover{len(shape.leaves)}",
                  lambda: reconstruct.tree_from_oracle(counted, source.leaves), check, _one)


# (command, leaf-count schedule); the tree kind cycles binary/collapsed/star.
# coloops runs on the small bucket only: at 19-24 leaves one call takes 1-3 s,
# and a handful of those would set every run's throughput and tail alone.
QUERY_SLOTS = [(cmd, sizes) for sizes in ((8, 5), (13, 6), (19, 6))
               for cmd in ("rank", "verdict", "closure", "coloops", "star")
               if cmd != "coloops" or sizes[0] == 8]
TREE_KINDS = {"binary": 0.0, "collapsed": 0.4, "star": 1.0}


class Queries(Workload):
    """CLI requests run in-process through cli.main([..., "--json"])."""

    def warmups(self):
        return [self._op("rank", n, "binary", fixed_rng()) for n in range(8, 25)]

    def rounds(self):
        r = 0
        while True:
            ops = []
            for i, (cmd, (low, width)) in enumerate(QUERY_SLOTS):
                kind = "star" if cmd == "star" else list(TREE_KINDS)[(r + i) % 3]
                ops.append(self._op(cmd, low + r % width, kind))
            r += 1
            yield ops

    def _op(self, cmd, n, kind, rng=None):
        rng = rng or self.rng
        labels = [f"L{i}" for i in range(n)]
        shape = inputs.random_shape(rng, labels, TREE_KINDS[kind])
        argv = [cmd, "--newick", shape.newick(), "--json"]
        cords = []
        if cmd != "coloops":
            cords = inputs.random_cords(rng, labels, rng.randint(n // 2, 2 * n))
            argv[3:3] = ["--cords", "-"]
        text = "# seeded cord file\n" + "".join(f"{a} {b}\n" for a, b in cords)

        def call():
            out = io.StringIO()
            saved, sys.stdin = sys.stdin, io.StringIO(text)
            try:
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
            finally:
                sys.stdin = saved
            return code, out.getvalue()

        def check(result):
            code, stdout = result
            if code != 0:
                return f"exit code {code}"
            records = [json.loads(line) for line in stdout.splitlines()]
            want = _query_reference(cmd, shape, cords)
            if cmd in ("closure", "coloops"):
                got = sorted(tuple(rec["cord"]) for rec in records)
            else:
                got = records[0]
                if cmd == "star":
                    got = {key: got[key] for key in want}
                    got["closure"] = sorted(tuple(c) for c in got["closure"])
            return None if got == want else f"{cmd}: got {got}, want {want}"

        return Op(cmd, call, check, lambda result: len(result[1].splitlines()))


def _query_reference(cmd, shape, cords):
    if cmd == "rank":
        return {"rank": reference.rank(shape, cords)}
    if cmd == "verdict":
        return reference.verdict(shape, cords)
    if cmd == "closure":
        return sorted(reference.closure(shape, cords))
    if cmd == "coloops":
        return sorted(reference.coloops(shape))
    v = reference.verdict(shape, cords)
    return {"rank": v["rank"], "lasso": v["lasso"], "independent": v["independent"],
            "basis": v["basis"], "circuit": reference.is_circuit(shape, cords),
            "closure": sorted(reference.closure(shape, cords))}


WORKLOADS = {"bases": Bases, "topo": Topo, "recover": Recover, "queries": Queries}
