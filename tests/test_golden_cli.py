"""Golden CLI bytes: report and mesh digests must not change across commits.

The determinism tests only compare two runs of the same build.  This module
compares every run against sha256 digests recorded in `golden_cli.json`, so
a change that reorders coset representatives, witnesses or mesh cells shows
up even when each build is self-consistent.  The cases cover the report
commands on `fixtures/`, plus an index-9 tropical theta (Lambda = 3I) and an
index-4 Fourier series (Lambda = 2I), whose reports are keyed by coset
representative, and a g=2 series with non-unit rational coefficients and
rational exponents in its periods, generators and coefficients
(`series_g2_rational.json`).  Six divisor cases pin the polytope work: the g=1
variety, whose divisor is points, a skewed g=2 variety (P = [[2,3],[3,7]])
and four g=3 varieties.  P = [[3,1,1],[1,3,1],[1,1,3]] has vertices where
three facet planes meet along non-coordinate edges; diag(2,2,2) has cube
cells, with the most planes tight at each vertex; [[2,1,0],[1,2,1],[0,1,2]]
has the largest g=3 cells of the three; [[2,3,0],[3,7,1],[0,1,2]] is a
skewed basis, whose cells are much smaller than the coordinate box around
them.
Nine cases pin failing reports, each exiting 1.
`tests/series_lambda0_off_support.json` is a lambda = 0 series with a
coefficient off its cocycle's support, so `validate` reports "12 identities
fail".  The rest pin construction failures: a theta whose form is not
positive definite (`validate`, `eval`, and `divisor`, which writes no mesh),
a principal series with two congruent coefficient reps (`validate`, and
`crosscheck A` and `C`, whose reports carry "samples": 0 because no suite
ran), the Riemann theta of a non-principal variety, and `crosscheck B` of a
non-principal period, where the suite itself refuses and the report carries
its default 100 samples.  Three crosscheck cases pin the seeded draws
away from seed 0 and the default sample counts: suite A on the index-4
series at seed 5 with 9 samples, suite B on `period_g2` at seed 7 with 40,
and suite C on `level2_g1` at seed 11 with 9.  A scratch file that a step never writes is
recorded as null.  A document named with a "tests/" prefix is read from
this directory, any other from `fixtures/`.

Re-record the digests (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from troptheta.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"

# case id -> steps; "{name}" is a file in a scratch directory whose bytes
# are digested too, so meshes and theta files are covered as well as stdout.
CASES = {
    "validate-variety-g2": [["validate", "variety_g2.json"]],
    "validate-variety-degenerate": [["validate", "variety_degenerate.json"]],
    "validate-theta-g1": [["validate", "theta_g1.json"]],
    "validate-series-g1": [["validate", "series_g1.json"]],
    "eval-theta-g1": [["eval", "theta_g1.json", "4/7", "-9/11", "22/13", "1/2"]],
    "riemann-variety-g2": [
        ["riemann", "variety_g2.json", "--out", "{theta}", "--point", "1/3,1/5", "--point", "0,1/2"]
    ],
    "crosscheck-a-series-g1": [["crosscheck", "A", "series_g1.json", "--seed", "7"]],
    "crosscheck-b-period-g1": [["crosscheck", "B", "period_g1.json"]],
    "crosscheck-b-period-g2": [["crosscheck", "B", "period_g2.json", "--samples", "30", "--seed", "4"]],
    "crosscheck-c-level2-g1": [["crosscheck", "C", "level2_g1.json", "--seed", "3"]],
    "export-variety-g2": [
        ["divisor", "variety_g2.json", "--out", "{mesh}"],
        ["export", "{mesh}", "--format", "svg"],
        ["export", "{mesh}", "--format", "json", "--out", "{copy}"],
    ],
    "validate-theta-index9": [["validate", "theta_g2_index9.json"]],
    "eval-theta-index9": [
        ["eval", "theta_g2_index9.json", "1/7,2/11", "0,0", "1/2,1/2", "-5/3,7/4", "100,-3/2"]
    ],
    "export-theta-index9": [
        ["divisor", "theta_g2_index9.json", "--out", "{mesh}"],
        ["export", "{mesh}", "--format", "svg"],
    ],
    "validate-series-index4": [["validate", "series_g2_index4.json"]],
    "crosscheck-a-series-index4": [["crosscheck", "A", "series_g2_index4.json", "--seed", "5"]],
    "crosscheck-c-series-index4": [
        ["crosscheck", "C", "series_g2_index4.json", "--seed", "2", "--samples", "10"]
    ],
    "validate-series-rational": [["validate", "series_g2_rational.json"]],
    "validate-series-off-support": [["validate", "tests/series_lambda0_off_support.json"]],
    "crosscheck-a-series-rational": [
        ["crosscheck", "A", "series_g2_rational.json", "--samples", "3", "--seed", "2"]
    ],
    "export-series-index4": [
        ["divisor", "series_g2_index4.json", "--out", "{mesh}"],
        ["export", "{mesh}", "--format", "json"],
    ],
    "export-variety-g2-skewed": [
        ["divisor", "variety_g2_skewed.json", "--out", "{mesh}"],
        ["export", "{mesh}", "--format", "svg"],
    ],
    "divisor-variety-g1": [["divisor", "variety_g1.json", "--out", "{mesh}"]],
    "divisor-variety-g3-obj": [
        ["divisor", "variety_g3.json", "--format", "obj", "--out", "{mesh}"],
    ],
    "divisor-variety-g3-diag": [["divisor", "variety_g3_diag.json", "--out", "{mesh}"]],
    "divisor-variety-g3-chain": [["divisor", "variety_g3_chain.json", "--out", "{mesh}"]],
    "divisor-variety-g3-sheared": [["divisor", "variety_g3_sheared.json", "--out", "{mesh}"]],
    "validate-theta-not-positive-definite": [["validate", "tests/theta_not_positive_definite.json"]],
    "eval-theta-not-positive-definite": [["eval", "tests/theta_not_positive_definite.json", "0,0"]],
    "divisor-theta-not-positive-definite": [
        ["divisor", "tests/theta_not_positive_definite.json", "--out", "{mesh}"]
    ],
    "validate-series-congruent-reps": [["validate", "tests/series_congruent_reps.json"]],
    "crosscheck-a-series-congruent-reps": [["crosscheck", "A", "tests/series_congruent_reps.json"]],
    "crosscheck-c-series-congruent-reps": [["crosscheck", "C", "tests/series_congruent_reps.json"]],
    "riemann-variety-non-principal": [["riemann", "tests/variety_non_principal.json"]],
    "crosscheck-b-level2-g1": [["crosscheck", "B", "level2_g1.json"]],
    "crosscheck-a-series-index4-seed5-samples9": [
        ["crosscheck", "A", "series_g2_index4.json", "--seed", "5", "--samples", "9"]
    ],
    "crosscheck-b-period-g2-seed7-samples40": [["crosscheck", "B", "period_g2.json", "--seed", "7", "--samples", "40"]],
    "crosscheck-c-level2-g1-seed11-samples9": [["crosscheck", "C", "level2_g1.json", "--seed", "11", "--samples", "9"]],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(steps, workdir: Path) -> dict:
    """Run the steps in order; digest each stdout and each scratch file."""
    runner = CliRunner()
    files: dict[str, Path] = {}
    exits, stdouts = [], []
    for step in steps:
        argv = []
        for arg in step:
            if arg.startswith("{"):
                name = arg.strip("{}")
                files.setdefault(name, workdir / f"{name}.out")
                argv.append(str(files[name]))
            elif arg.endswith(".json"):
                argv.append(str(ROOT / arg if arg.startswith("tests/") else FIXTURES / arg))
            else:
                argv.append(arg)
        res = runner.invoke(main, argv)
        exits.append(res.exit_code)
        stdouts.append(_sha(res.stdout_bytes))
    return {
        "exit": exits,
        "stdout": stdouts,
        "files": {name: _sha(p.read_bytes()) if p.exists() else None for name, p in sorted(files.items())},
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_bytes_match_golden(case, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert run_case(CASES[case], tmp_path) == golden[case]


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_cli.py --write")
    out = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            out[case] = run_case(CASES[case], Path(tmp))
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
