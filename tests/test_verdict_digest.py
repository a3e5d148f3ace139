"""Golden verdicts of the topological decider.

``is_topological_lasso`` answers a yes/no question, so any two exact
implementations of it must give the same verdict on every input.  This
digest pins the verdicts on every cord subset of every 4- and 5-leaf shape
and on seeded random 6-leaf inputs, so a change to the search, its pruning
or its feasibility systems cannot move a single verdict.
"""

from __future__ import annotations

import hashlib
import itertools
import random

import lassomatroid as lm
from lassomatroid import lasso

from helpers import trees_on


def _cases():
    """Every cord subset of every 4- and 5-leaf shape, then 400 seeded random
    6-leaf shapes, each with a cord set that keeps every cord with one of a
    few probabilities."""
    for n in (4, 5):
        for t in trees_on(n):
            every = sorted(lm.all_cords(t.leaves))
            for r in range(len(every) + 1):
                for sub in itertools.combinations(every, r):
                    yield t, frozenset(sub)
    rng = random.Random(2013)
    for _ in range(400):
        t = rng.choice(trees_on(6))
        every = sorted(lm.all_cords(t.leaves))
        p = rng.choice((0.5, 0.7, 0.8, 0.9))
        yield t, frozenset(c for c in every if rng.random() < p)


def test_topological_verdicts_match_their_golden_digest(monkeypatch):
    """sha256 over one line per case: the shape, its sorted cords, the verdict."""
    monkeypatch.setattr(lasso, "_topological_memo", {})
    h = hashlib.sha256()
    cases = positive = 0
    for t, sub in _cases():
        verdict = lm.is_topological_lasso(t, sub)
        cords = " ".join(a + b for a, b in sorted(sub))
        h.update(f"{t.canonical_form()} {cords} {int(verdict)}\n".encode())
        cases += 1
        positive += verdict
    assert (cases, positive) == (256 + 26 * 1024 + 400, 1469)
    assert h.hexdigest() == (
        "d155599bc9ecf92494588b52666d22a372d6ee7f6aa6e2ec3b8602afa3922b75")
