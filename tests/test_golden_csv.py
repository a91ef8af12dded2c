"""Pinned CSV bytes and summaries: cheap CLI configs run in-process against
recorded sha256s.

Every value the package reports is a pure function of its seed, so a change
that alters a single digit of these tables (a different stream, a reordered
reduction, a filter that drops a trial it should keep) shows here. The
hashes are the ones listed in CHANGES.md. The benchmark-sized tube config
escalates 5000 -> 50000 trials, so it pins the counts that escalation adds;
the levy-law config pins the 2^-12 stream and its NaN-delta variance row.
Each summary.json is pinned as well, all but its wall clock, so a change to
a verdict, its detail text or a meta value shows too.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from heis.cli import main

# name: (argv, CSV sha256, summary.json sha256 without wall_clock_s)
GOLDEN = {
    "support": (
        ["support", "--phi", "line 1 0", "--fine-step", "2^-10", "--epsilon", "1.0",
         "--trials", "10000", "--seed", "1002"],
        "67c122d4a22f8328dcca436dd8611778f12c7fe200bab0ce81a1a8e43f3e040c",
        "5b62c2cd9c3ed493b1779a8ca91eeb7e39d90d04f8dc768a6f6db7880b496ae9",
    ),
    "dds-diagnostics": (
        ["dds-diagnostics", "--fine-step", "2^-10", "--times", "0.25,0.5,1.0",
         "--trials", "10000", "--seed", "1000"],
        "27f61c6ce2c3447a81041287ca19071dd475b1273e1aeabee52b4bcaecde9fc3",
        "2dd6bb4e73796cdd0e44906e05e0ba8e7504c9a4562ca6559fe82cc4d70271f2",
    ),
    "tube": (
        ["tube", "--phi", "line 1 0", "--epsilon", "0.9", "--deltas", "1.0,0.8",
         "--trials", "20000", "--min-accepted", "100", "--fine-step", "2^-8", "--seed", "1"],
        "a4df3455116f5c3135170d68a7831d51b54c6147d77b42e6619461f994cce266",
        "52e2c5a0bc9002a78362bf446318ba08d16dd20ff3db81240c32c586b6f6bc89",
    ),
    "girsanov-ratio": (
        ["girsanov-ratio", "--phi", "line 1 0", "--deltas", "1.0,0.8,0.7,0.6",
         "--trials", "20000", "--seed", "5"],
        "154f2d4b99595d23580b989717a1a42efea962814351ff02caffdf53f3a9f6c5",
        "318072d8a5250fff9a0b21ca0a3375de9ab1dc37f818c0a5e950b44ab57404fc",
    ),
    "simulate": (
        ["simulate", "--seed", "5"],
        "548efd52f8f3f7cad95b20eae302d33945807ced4553167bc1c158650f18f0b0",
        "13ab13b8cc475ee3f6ece73a3447d53b9efca6f34515c0585cc29655eec5c7f9",
    ),
    "helix": (
        ["helix"],
        "db9bfb094ae00336a31076d7a3da37f7d65e6d366bd560b1a3c4b2b8fd00bcbd",
        "0d6e4d79c92a1c69dce8016d461c5d5c84b84164a2a48e4d020c87be49ec5b56",
    ),
    "energy-diverge": (
        ["energy-diverge", "--trials", "128", "--seed", "5"],
        "295ed6eed32821a1acfeb61ff5e09276a7ff7dc2857b9f1a2b473c70c4a346c1",
        "71d6f496a614a6a44bd2c98f010d9155886abd45a4667b35a740bc727c473e2a",
    ),
    "ws-converge-linear": (
        ["ws-converge", "--trials", "200", "--fine-step", "2^-10",
         "--deltas", "2^-2,2^-3,2^-4", "--seed", "5"],
        "79e1dbc2a179919339bd4ba3d16b4a60d878694d9cfe839095c40b9c106a58bc",
        "3c10f7f0b4bd865bfaa7c57a14fed9b692af98c9d4b2226851749525508c5cd3",
    ),
    "ws-converge-smoothstep": (
        ["ws-converge", "--trials", "100", "--fine-step", "2^-10", "--deltas", "2^-2,2^-4",
         "--interpolant", "smoothstep", "--seed", "6"],
        "f02d42437a155e9732545bde32ada51dd21223461b956329796af270298c1b17",
        "64e743f09d2cdaf059317be294dfd66c71372dd443c1532a1551cb54090a4261",
    ),
    "tube-escalating": (
        ["tube", "--phi", "line 1 0", "--fine-step", "2^-8", "--epsilon", "0.9",
         "--deltas", "0.9,0.8,0.7,0.6", "--min-accepted", "16", "--budget", "50000",
         "--trials", "5000", "--seed", "1003"],
        "c504f9a72bf9b1dd7c27b365f261de58a86554492f3d4f456e1486c5a2b5e46f",
        "a68dc99f8254bd7a81de2d0101ba0de434010afbc038dc56028a1ef8a7714625",
    ),
    "levy-law": (
        ["levy-law", "--fine-step", "2^-12", "--lambdas", "0.5,1,2",
         "--trials", "4000", "--seed", "1001"],
        "69bf593f75dcd26b456877d2e5aeb2a38ef470d4b013e765682a98d1cd079ec0",
        "08c8cd14d06e6eb48cd052c0282086b1eff0f5819514992ad18054912bd3f599",
    ),
}


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """Runs each golden config once; returns its (CSV bytes, summary dict)."""
    runs = {}

    def run(name):
        if name not in runs:
            out = tmp_path_factory.mktemp(name)
            result = CliRunner().invoke(main, [*GOLDEN[name][0], "--out", str(out)])
            assert result.exit_code == 0, result.output
            (csv_path,) = out.glob("*.csv")
            (summary_path,) = out.glob("*.summary.json")
            runs[name] = csv_path.read_bytes(), json.loads(summary_path.read_text())
        return runs[name]

    return run


@pytest.mark.parametrize("name", list(GOLDEN))
def test_pinned_csv_bytes(name, golden_run):
    csv_bytes, _ = golden_run(name)
    assert hashlib.sha256(csv_bytes).hexdigest() == GOLDEN[name][1]


def summary_digest(summary: dict) -> str:
    """sha256 of a summary without its wall clock, the one value that varies
    between reruns; nothing in a summary depends on --out."""
    pinned = {k: v for k, v in summary.items() if k != "wall_clock_s"}
    return hashlib.sha256(json.dumps(pinned, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_pinned_summary(name, golden_run):
    """The summary's config, hash, verdicts and meta, pinned like the CSV."""
    _, summary = golden_run(name)
    assert summary_digest(summary) == GOLDEN[name][2]
