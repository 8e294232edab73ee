"""Frozen integer outcomes of the cohomology suite.

``run_suite("cohomology", [2, 3, 4, 6], [2, 3], 2, seed)`` is pinned for
seeds 0 and 1: per record the kind, n, genus, the h vector, the sampling
seed and the resample count, and for every record ``ok``, no failures and a
reliable rank cut.  No floats are pinned, so a rewrite of the differentials
or the solves that keeps every rank and every accepted sample passes.
"""

import pytest

from charvar.verify import run_suite

# (kind, n, genus, h, seed, resamples); commuting-diagonal records carry no
# resample count
PINNED = {
    0: [
        ('irreducible-random', 2, 2, (0, 6, 0), 3337550300165466130, 0),
        ('irreducible-random', 2, 2, (0, 6, 0), 3337550300166466133, 0),
        ('commuting-diagonal', 2, 2, (1, 8, 1), 3000021000039, None),
        ('irreducible-random', 2, 3, (0, 12, 0), 3337551300171466139, 0),
        ('irreducible-random', 2, 3, (0, 12, 0), 3337551300172466142, 0),
        ('commuting-diagonal', 2, 3, (1, 14, 1), 3000021000040, None),
        ('irreducible-random', 3, 2, (0, 16, 0), 4337559300192466157, 0),
        ('irreducible-random', 3, 2, (0, 16, 0), 4337559300193466160, 0),
        ('commuting-diagonal', 3, 2, (2, 20, 2), 3000022000042, None),
        ('irreducible-random', 3, 3, (0, 32, 0), 4337560300198466166, 0),
        ('irreducible-random', 3, 3, (0, 32, 0), 4337560300199466169, 0),
        ('commuting-diagonal', 3, 3, (2, 36, 2), 3000022000043, None),
        ('irreducible-random', 4, 2, (0, 30, 0), 5337568300219466184, 0),
        ('irreducible-random', 4, 2, (0, 30, 0), 5337568300220466187, 0),
        ('commuting-diagonal', 4, 2, (3, 36, 3), 3000023000045, None),
        ('irreducible-random', 4, 3, (0, 60, 0), 5337569300225466193, 0),
        ('irreducible-random', 4, 3, (0, 60, 0), 5337569300226466196, 0),
        ('commuting-diagonal', 4, 3, (3, 66, 3), 3000023000046, None),
        ('irreducible-random', 6, 2, (0, 70, 0), 7337586300273466238, 0),
        ('irreducible-random', 6, 2, (0, 70, 0), 7337586300274466241, 0),
        ('commuting-diagonal', 6, 2, (5, 80, 5), 3000025000051, None),
        ('irreducible-random', 6, 3, (0, 140, 0), 7337587300279466247, 0),
        ('irreducible-random', 6, 3, (0, 140, 0), 7337587300280466250, 0),
        ('commuting-diagonal', 6, 3, (5, 150, 5), 3000025000052, None),
    ],
    1: [
        ('irreducible-random', 2, 2, (0, 6, 0), 8567391169867094085, 0),
        ('irreducible-random', 2, 2, (0, 6, 0), 8567391169868094088, 0),
        ('commuting-diagonal', 2, 2, (1, 8, 1), 1000012000048000066, None),
        ('irreducible-random', 2, 3, (0, 12, 0), 8567392169873094094, 0),
        ('irreducible-random', 2, 3, (0, 12, 0), 8567392169874094097, 0),
        ('commuting-diagonal', 2, 3, (1, 14, 1), 1000012000048000067, None),
        ('irreducible-random', 3, 2, (0, 16, 0), 344028133039318304, 0),
        ('irreducible-random', 3, 2, (0, 16, 0), 344028133040318307, 0),
        ('commuting-diagonal', 3, 2, (2, 20, 2), 1000012000049000069, None),
        ('irreducible-random', 3, 3, (0, 32, 0), 344029133045318313, 0),
        ('irreducible-random', 3, 3, (0, 32, 0), 344029133046318316, 0),
        ('commuting-diagonal', 3, 3, (2, 36, 2), 1000012000049000070, None),
        ('irreducible-random', 4, 2, (0, 30, 0), 1344037133066318331, 0),
        ('irreducible-random', 4, 2, (0, 30, 0), 1344037133067318334, 0),
        ('commuting-diagonal', 4, 2, (3, 36, 3), 1000012000050000072, None),
        ('irreducible-random', 4, 3, (0, 60, 0), 1344038133072318340, 0),
        ('irreducible-random', 4, 3, (0, 60, 0), 1344038133073318343, 0),
        ('commuting-diagonal', 4, 3, (3, 66, 3), 1000012000050000073, None),
        ('irreducible-random', 6, 2, (0, 70, 0), 3344055133120318385, 0),
        ('irreducible-random', 6, 2, (0, 70, 0), 3344055133121318388, 0),
        ('commuting-diagonal', 6, 2, (5, 80, 5), 1000012000052000078, None),
        ('irreducible-random', 6, 3, (0, 140, 0), 3344056133126318394, 0),
        ('irreducible-random', 6, 3, (0, 140, 0), 3344056133127318397, 0),
        ('commuting-diagonal', 6, 3, (5, 150, 5), 1000012000052000079, None),
    ],
}


@pytest.mark.parametrize("master_seed", sorted(PINNED))
def test_cohomology_suite_is_pinned(master_seed):
    records = run_suite("cohomology", [2, 3, 4, 6], [2, 3], 2, master_seed)
    got = [
        (r["kind"], r["n"], r["genus"], tuple(r["h"]), r["seed"], r.get("resamples"))
        for r in records
    ]
    assert got == PINNED[master_seed]
    for r in records:
        assert (r["ok"], r["failures"], r["reliable"]) == (True, [], True), r
