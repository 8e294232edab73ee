"""Answers that must not change when the presentation changes.

Generating-set invariance: Z0 is the subgroup its generators span, so a
minimal generating set, the full element list, and the full list padded
with redundant words (sums of generators, repeats, the identity) present
the same group.  Every command's ``--json`` answer must then be the same,
apart from the group spec it echoes back.

The paper's reduction to the semisimple case gives three more: reordering
the factors permutes every answer to match; coupling a new torus
coordinate to the center through a free generator keeps the verdict and
the singular codimension and adds only torus and etale steps to the plan;
and a product with SL(n) at genus one, or with SL(2) at genus two, has a
resolution exactly when the group itself has one.
"""

import copy
import json
import random
from fractions import Fraction

from center_oracle import add
from charvar import cli
from charvar.groups import CentralElement, GroupSpec
from conftest import mixed_denominator_specs, small_group_catalog

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


def _catch_payloads(monkeypatch):
    """Collect each command's payload as handed to the printer."""
    printed = []
    monkeypatch.setattr(
        cli, "_emit", lambda args, config, payload, render: printed.append(payload)
    )
    return printed


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
    printed = _catch_payloads(monkeypatch)
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


# --------------------------------------------------------------------------
# the paper's reduction: factor order, free torus coupling, SL products


def _reduction_cases(count, seed):
    """Torus-free quotients of SL products and torus presentations with
    mixed angle denominators, each with its own random source."""
    rnd = random.Random(seed)
    pool = [s for s in small_group_catalog() if len(s.factors) >= 2]
    pool += [s for s in mixed_denominator_specs() if s.factors]
    return [(spec, random.Random(rnd.random())) for spec in rnd.sample(pool, count)]


def _element_key(element):
    return tuple(map(Fraction, element["torus"])), tuple(element["factors"])


def _labels(decomposition):
    """The quotient factor labels the verdict witness prints."""
    pgl2 = set(decomposition["pgl2_indices"])
    return " x ".join(
        "PGL(2)" if i in pgl2 else f"SL({n})" for i, n in enumerate(decomposition["factors"])
    )


def _permute_plan(plan, perm):
    leaves = [plan["leaves"][j] for j in perm]
    for i, leaf in enumerate(leaves):
        leaf["factor_index"] = i
    plan["leaves"] = leaves


def _permuted(answers, perm):
    """The payloads of ``COMMANDS`` for the group whose factor i is factor
    perm[i] of the group that gave ``answers``."""
    analyze, fixed, classify, plan = copy.deepcopy(answers)
    inverse = {j: i for i, j in enumerate(perm)}

    def element(e):
        return {"torus": e["torus"], "factors": [e["factors"][j] for j in perm]}

    decomposition = analyze["decomposition"]
    before = _labels(decomposition)
    decomposition["factors"] = [decomposition["factors"][j] for j in perm]
    decomposition["pgl2_indices"] = sorted(inverse[j] for j in decomposition["pgl2_indices"])
    decomposition["ss_kernel"] = sorted(map(element, decomposition["ss_kernel"]), key=_element_key)
    after = _labels(decomposition)
    for verdict in (analyze["verdict"], classify):
        verdict["witness"] = verdict["witness"].replace(before, after)
    analyze["strata"]["factors"] = [analyze["strata"]["factors"][j] for j in perm]
    _permute_plan(analyze["terminalization"], perm)
    _permute_plan(plan, perm)

    for row in fixed["twists"]:
        row["element"] = element(row["element"])
        if row["factor_orders"]:
            row["factor_orders"] = [row["factor_orders"][j] for j in perm]
    fixed["twists"].sort(key=lambda row: _element_key(row["element"]))
    if fixed["min_witness"] is not None:
        # the least minimizer in the new order
        fixed["min_witness"] = min(
            (row["element"] for row in fixed["twists"] if row["codim"] == fixed["min_codim"]),
            key=_element_key,
        )
    return [analyze, fixed, classify, plan]


def test_factor_permutation_permutes_the_payload(monkeypatch):
    printed = _catch_payloads(monkeypatch)
    moved = 0
    for spec, rnd in _reduction_cases(80, seed=21):
        perm = list(range(len(spec.factors)))
        rnd.shuffle(perm)
        moved += perm != sorted(perm)
        gens = tuple(
            CentralElement(g.torus_part, tuple(g.ss_part[j] for j in perm))
            for g in spec.central_generators
        )
        shuffled = GroupSpec(spec.torus_rank, tuple(spec.factors[j] for j in perm), gens)
        for genus in (1, 2, 3):
            want = _permuted(_answers(spec, spec.central_generators, genus, printed), perm)
            got = _answers(shuffled, gens, genus, printed)
            assert got == want, (spec, perm, genus)
    assert moved > 40


def _coupled(spec, rnd):
    """``spec`` with one more torus coordinate and one more generator: random
    residues r and the angle 1/k there, k a multiple of the order of r.  A
    multiple j of the new generator is torus-trivial only when k | j, and
    then its residues vanish, so the torus-invisible kernel is unchanged
    and the quotient grows by a free factor of order k."""
    center = spec.center()
    residues = tuple(rnd.randrange(n) for n in spec.factors)
    order = center.order(CentralElement((Fraction(0),) * spec.torus_rank, residues))
    k = max(2, order * rnd.randint(1, 3))
    zero = (Fraction(0),)
    gens = tuple(CentralElement(g.torus_part + zero, g.ss_part) for g in spec.central_generators)
    new = CentralElement((Fraction(0),) * spec.torus_rank + (Fraction(1, k),), residues)
    return GroupSpec(spec.torus_rank + 1, spec.factors, gens + (new,)), k


def test_free_torus_coupling_changes_only_torus_and_etale_steps(monkeypatch):
    printed = _catch_payloads(monkeypatch)
    free_steps = ("torus_product", "etale_quotient")
    for spec, rnd in _reduction_cases(60, seed=22):
        coupled, k = _coupled(spec, rnd)
        for genus in (1, 2, 3):
            analyze, fixed, classify, plan = _answers(
                spec, spec.central_generators, genus, printed
            )
            analyze2, fixed2, classify2, plan2 = _answers(
                coupled, coupled.central_generators, genus, printed
            )
            case = (spec, coupled, genus)
            assert classify2 == classify, case
            assert analyze2["verdict"] == analyze["verdict"], case
            assert analyze2["singular_codim"] == analyze["singular_codim"], case
            assert fixed2["min_codim"] == fixed["min_codim"], case
            assert analyze2["dimension"] == analyze["dimension"] + 2 * genus, case
            before, after = analyze["decomposition"], analyze2["decomposition"]
            assert after["ss_kernel_order"] == before["ss_kernel_order"], case
            assert after["etale_order"] == before["etale_order"] * k, case
            assert after["pgl2_indices"] == before["pgl2_indices"], case
            assert (plan2["leaves"], plan2["smooth"]) == (plan["leaves"], plan["smooth"]), case
            kept = [s for s in plan["steps"] if s["kind"] not in free_steps]
            assert [s for s in plan2["steps"] if s["kind"] not in free_steps] == kept, case
            assert [s["kind"] for s in plan2["steps"] if s["kind"] in free_steps] == list(
                free_steps
            ), case


def _times_sl(spec, n):
    """``spec`` x SL(n), the new factor outside Z0."""
    gens = tuple(
        CentralElement(g.torus_part, g.ss_part + (0,)) for g in spec.central_generators
    )
    return GroupSpec(spec.torus_rank, spec.factors + (n,), gens)


def test_sl_products_keep_the_resolution_answer(monkeypatch):
    printed = _catch_payloads(monkeypatch)
    rnd = random.Random(23)
    pool = list(small_group_catalog()) + mixed_denominator_specs()
    resolved = 0
    for spec in rnd.sample(pool, 120):
        for genus, n in ((1, rnd.randint(2, 5)), (2, 2)):
            answers = []
            for group in (spec, _times_sl(spec, n)):
                argv = ["classify", "--group", json.dumps(group.to_json()), "--genus", str(genus)]
                assert cli.main([*argv, "--json"]) == 0
                answers.append(printed.pop()["has_resolution"])
            assert answers[0] == answers[1], (spec, genus, n)
            resolved += answers[0]
    # both answers occur
    assert 0 < resolved < 240
