"""Answers that must not change when the presentation changes.

Generating-set invariance: Z0 is the subgroup its generators span, so a
minimal generating set, the full element list, and the full list padded
with redundant words (sums of generators, repeats, the identity) present
the same group.  Every command's ``--json`` answer must then be the same,
apart from the group spec it echoes back.
"""

import json
import random

from center_oracle import add
from charvar import cli
from charvar.groups import GroupSpec
from conftest import small_group_catalog

COMMANDS = ("analyze", "fixed-loci", "classify", "terminalize")


def _minimal_generators(spec, rnd):
    """A generating set of Z0 from which no generator can be dropped,
    picked greedily from the elements in a random order."""
    center = spec.center()
    order = center.closure(spec.central_generators).order
    elements = list(spec.central_generators)
    rnd.shuffle(elements)
    gens = []
    for g in elements:
        if g not in center.closure(gens):
            gens.append(g)
    for g in list(gens):
        rest = [x for x in gens if x is not g]
        if center.closure(rest).order == order:
            gens = rest
    return gens


def _redundant_words(spec, rnd):
    """The full generator list plus sums of generators, repeats and the
    identity, shuffled."""
    center = spec.center()
    gens = list(spec.central_generators)
    words = [add(spec.factors, rnd.choice(gens), rnd.choice(gens)) for _ in range(3)]
    words += [rnd.choice(gens), center.identity()]
    padded = gens + words
    rnd.shuffle(padded)
    return padded


def _answers(spec, generators, genus, printed):
    """Each command's ``--json`` payload, as handed to the printer."""
    group = json.dumps(GroupSpec(spec.torus_rank, spec.factors, tuple(generators)).to_json())
    answers = []
    for command in COMMANDS:
        assert cli.main([command, "--group", group, "--genus", str(genus), "--json"]) == 0
        payload = printed.pop()
        # analyze and fixed-loci echo the group, and so does each plan
        payload.pop("group", None)
        payload.get("terminalization", {}).pop("group", None)
        answers.append(payload)
    return answers


def _invariance_cases(count=150, seed=11):
    rnd = random.Random(seed)
    catalog = [s for s in small_group_catalog() if s.central_generators]
    return [(spec, random.Random(rnd.random())) for spec in rnd.sample(catalog, count)]


def test_generating_set_invariance(monkeypatch):
    # the payloads are compared before printing: the JSON writer is a pure
    # function of them (and has its own tests), and skipping it halves the
    # cost of 5400 queries
    printed = []
    monkeypatch.setattr(
        cli, "_emit", lambda args, config, payload, render: printed.append(payload)
    )
    cases = _invariance_cases()
    assert len(cases) == 150
    shrunk = padded = 0
    for spec, rnd in cases:
        minimal = _minimal_generators(spec, rnd)
        words = _redundant_words(spec, rnd)
        shrunk += len(minimal) < len(spec.central_generators)
        padded += len(words) > len(spec.central_generators)
        for genus in (1, 2, 3):
            want = _answers(spec, spec.central_generators, genus, printed)
            assert _answers(spec, minimal, genus, printed) == want, (spec, genus)
            assert _answers(spec, words, genus, printed) == want, (spec, genus)
    # the three sets really differ
    assert shrunk > 100 and padded == 150
