"""Same-seed reports must not change across refactors.

Each file in ``tests/golden/`` is the ``--json`` output of the command
listed here.  The 12 ``check-*`` reports were regenerated when smooth
fans came to be split per cone: cocycles and sections are drawn per
cone (no longer as kernel elements of the whole system), witnesses are
the contraction and the extension by zero parts, and the results gain a
``split`` line; so the sampled data, the certificates and the supports
all changed then.  The ``k0-global`` reports did not change then, nor
when degree-zero cohomology came to be kept as global sections rather
than level-0 cochains; the rank-3 and non-smooth ``k0-global`` reports
were captured before that change.  A change meant to alter these
reports must say so and regenerate them from the repository root with

    PYTHONPATH=src python -m kfan.cli <arguments> --json > tests/golden/<name>.json
"""

import os

import pytest

from kfan.cli import main

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

# chi^(1,0) on three of the four pieces and 1 on the last: not a member
NON_MEMBER = '{"0":[[[1,0],1]],"1":[[[1,0],1]],"2":[[[1,0],1]],"3":[[[0,0],1]]}'
# values on two of the eight octants, zero elsewhere: pieces 0 and 1 already disagree
NON_MEMBER_3D = '{"0":[[[1,0,0],1]],"5":[[[0,0,1],2]]}'

GOLDEN = {
    "exactness-p2-level1": "check-exactness fans/p2.json --level 1 --trials 4 --seed 7",
    "exactness-p2-level2": "check-exactness fans/p2.json --level 2 --trials 3 --seed 2",
    "exactness-p1xp1-level1": "check-exactness fans/p1xp1.json --level 1 --trials 3 --seed 11",
    "exactness-p1xp1-level2": "check-exactness fans/p1xp1.json --level 2 --trials 3 --seed 4",
    "exactness-f1-level1": "check-exactness tests/golden/f1.json --level 1 --trials 3 --seed 5",
    "exactness-f1-level2": "check-exactness tests/golden/f1.json --level 2 --trials 2 --seed 8",
    "flasque-p2": "check-flasque fans/p2.json --trials 4 --seed 3",
    "flasque-p1xp1": "check-flasque fans/p1xp1.json --trials 3 --seed 6",
    "flasque-f1": "check-flasque tests/golden/f1.json --trials 3 --seed 9",
    "exactness-p1xp1xp1-level1": "check-exactness tests/golden/p1xp1xp1.json --level 1 --trials 3 --seed 13",
    "exactness-p1xp1xp1-level2": "check-exactness tests/golden/p1xp1xp1.json --level 2 --trials 2 --seed 10",
    "flasque-p3": "check-flasque tests/golden/p3.json --trials 3 --seed 12",
    "k0-global-p1xp1-sample": "k0-global fans/p1xp1.json --sample 5",
    "k0-global-p1xp1-element": f"k0-global fans/p1xp1.json --element {NON_MEMBER}",
    "k0-global-hirzebruch2-sample": "k0-global fans/hirzebruch2.json --sample 5",
    "k0-global-hirzebruch2-element": f"k0-global fans/hirzebruch2.json --element {NON_MEMBER}",
    "k0-global-p1xp1xp1-sample": "k0-global tests/golden/p1xp1xp1.json --sample 3 --seed 4",
    "k0-global-quadric-cone-sample": "k0-global fans/quadric-cone.json --sample 2 --seed 1",
    "k0-global-p1xp1xp1-element": f"k0-global tests/golden/p1xp1xp1.json --element {NON_MEMBER_3D}",
}
# the reports of these commands end in exit 1 (a non-member, with witness)
EXIT_STATUS = {
    "k0-global-p1xp1-element": 1,
    "k0-global-hirzebruch2-element": 1,
    "k0-global-p1xp1xp1-element": 1,
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_matches_golden_file(name, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(GOLDEN[name].split() + ["--json"]) == EXIT_STATUS.get(name, 0)
    with open(os.path.join("tests", "golden", f"{name}.json"), encoding="utf-8") as f:
        assert capsys.readouterr().out == f.read()
