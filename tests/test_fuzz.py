"""Seeded input fuzzing of ``cli.main``: malformed group specs and --config
values must end in exit 0 or 1, never in a traceback.

Every case is drawn by stdlib ``random`` from a fixed seed.  Valid values
are small (SL factors of size 2-4, torus rank at most 2, genus 1-3, verify
sizes 2-3 and one trial), so each query stays cheap by its size; the
malformed ones are refused before any work.
"""

import copy
import json
import random

import pytest

from charvar import cli

# values of every JSON type, for a field that wants another one
JUNK = (
    None, True, False, 0.5, 2.0, -1, 10**30, 2**64, "", "x", "2", "1/0",
    [], [2], [None], {}, {"a": 1},
)
ANGLES = ("0", "1/2", "1/3", "2/5", "5/6")
PRESETS = ("PGL(2)^3", "GL(3)xSL(2)", "SL(2)xPGL(4)", "GL(2)^40", "XQ(2)", "", "SL(2)^10001")
GROUP_COMMANDS = ("analyze", "classify", "terminalize", "fixed-loci", "strata")


def _junk(rnd, pool=JUNK):
    """A fresh copy of a junk value, so that no case edits one in place."""
    return copy.deepcopy(rnd.choice(pool))


def _spec(rnd):
    """A valid small group object, then zero to two fields made malformed."""
    h = rnd.choice((0, 0, 1, 2))
    factors = [rnd.choice((2, 3, 4)) for _ in range(rnd.randint(0, 3))]
    generators = [
        {
            "torus": [rnd.choice(ANGLES) for _ in range(h)],
            "factors": [rnd.randrange(n) for n in factors],
        }
        for _ in range(rnd.randint(0, 3))
    ]
    spec = {"torus_rank": h, "factors": factors, "central_generators": generators}
    for _ in range(rnd.randint(0, 2)):
        _corrupt(rnd, spec)
    return spec


def _corrupt(rnd, spec):
    """Replace, drop or add one field of ``spec`` in place."""
    generators = spec.get("central_generators")
    places = [spec]
    if isinstance(generators, list):
        places += [g for g in generators if isinstance(g, dict)]
    place = rnd.choice(places)
    keys = list(place)
    action = rnd.randrange(4)
    if action == 0 or not keys:
        place[rnd.choice(("unknown", "torus_rank", "factors", "torus"))] = _junk(rnd)
    elif action == 1:
        del place[rnd.choice(keys)]
    else:
        key = rnd.choice(keys)
        value = place[key]
        if isinstance(value, list) and value and action == 2:
            value[rnd.randrange(len(value))] = _junk(rnd)
        else:
            place[key] = _junk(rnd)


def _int_like(value):
    """A JSON int that is not a bool, or a string ``int()`` reads."""
    if isinstance(value, str):
        try:
            int(value)
        except ValueError:
            return False
        return True
    return isinstance(value, int) and not isinstance(value, bool)


def _int_list_like(value):
    if isinstance(value, str):
        return all(map(_int_like, value.split(",")))
    return isinstance(value, list) and all(
        _int_like(x) and not isinstance(x, str) for x in value
    )


# the --config typing rule, restated: what each key read here takes
TYPED = {
    "group": lambda v: isinstance(v, (str, dict)),
    "suite": lambda v: isinstance(v, str),
    "genus": _int_like,
    "trials": _int_like,
    "seed": _int_like,
    "sizes": _int_list_like,
    "genera": _int_list_like,
    "json": lambda v: isinstance(v, bool),
    "oracle": lambda v: isinstance(v, bool),
    "strict": lambda v: isinstance(v, bool),
}


def _pick(rnd, good, share=0.8):
    """One of ``good`` mostly, otherwise a junk value."""
    return rnd.choice(good) if rnd.random() < share else _junk(rnd)


def _group_case(rnd):
    command = rnd.choice(GROUP_COMMANDS)
    if rnd.random() < 0.15:
        group = rnd.choice(PRESETS)
    else:
        group = _pick(rnd, (_spec(rnd),), 0.95)
    config = {"group": group, "genus": _pick(rnd, (1, 2, 3, "2"))}
    for key in ("json", "oracle") if command == "fixed-loci" else ("json",):
        if rnd.random() < 0.5:
            config[key] = _pick(rnd, (True, False), 0.7)
    return command, config


def _verify_case(rnd):
    # verify's valid values stay small: a size, genus or trial count of
    # 10^30 is work, not a malformed value, so no junk int goes there
    small = {
        "suite": ("fixed-loci",),
        "sizes": ([2], [2, 3], "3"),
        "genera": ([1], [2], "1,2"),
        "trials": (1, "1"),
        "seed": (0, 7, "11", 10**30),
        "strict": (True, False),
        "json": (True, False),
    }
    junk = [v for v in JUNK if not isinstance(v, int) or isinstance(v, bool)]
    config = {}
    for key, values in small.items():
        if rnd.random() < 0.6:
            config[key] = _junk(rnd, values) if rnd.random() < 0.8 else _junk(rnd, junk)
    config.setdefault("suite", "fixed-loci")
    return "verify", config


@pytest.mark.parametrize("seed", range(4))
def test_fuzzed_specs_and_configs_exit_0_or_1(capsys, tmp_path, seed):
    rnd = random.Random(1400 + seed)
    cfg = tmp_path / "cfg.json"
    outcomes = set()
    for _ in range(400):
        command, config = (_verify_case if rnd.random() < 0.1 else _group_case)(rnd)
        if rnd.random() < 0.1:
            config["unknown"] = _junk(rnd)
        cfg.write_text(json.dumps(config))
        code = cli.main([command, "--config", str(cfg)])
        out, err = capsys.readouterr()
        case = (command, config)
        assert code in (0, 1), case
        assert "Traceback" not in err, case
        if code:
            assert err.startswith("error[") and out == "", case
        if not all(TYPED[key](value) for key, value in config.items() if key in TYPED):
            # an earlier input error (a malformed spec, say) may come first
            assert code == 1, case
        outcomes.add(err.split("]")[0] + "]" if code else code)
    assert {0, "error[config]", "error[group-spec]"} <= outcomes
