"""Pinned CSV bytes: cheap CLI configs run in-process against recorded sha256s.

Every value the package reports is a pure function of its seed, so a change
that alters a single digit of these tables (a different stream, a reordered
reduction, a filter that drops a trial it should keep) shows here. The
hashes are the ones listed in CHANGES.md. The benchmark-sized tube config
escalates 5000 -> 50000 trials, so it pins the counts that escalation adds;
the levy-law config pins the 2^-12 stream and its NaN-delta variance row.
"""

import hashlib

import pytest
from click.testing import CliRunner

from heis.cli import main

GOLDEN = {
    "support": (
        ["support", "--phi", "line 1 0", "--fine-step", "2^-10", "--epsilon", "1.0",
         "--trials", "10000", "--seed", "1002"],
        "67c122d4a22f8328dcca436dd8611778f12c7fe200bab0ce81a1a8e43f3e040c",
    ),
    "dds-diagnostics": (
        ["dds-diagnostics", "--fine-step", "2^-10", "--times", "0.25,0.5,1.0",
         "--trials", "10000", "--seed", "1000"],
        "27f61c6ce2c3447a81041287ca19071dd475b1273e1aeabee52b4bcaecde9fc3",
    ),
    "tube": (
        ["tube", "--phi", "line 1 0", "--epsilon", "0.9", "--deltas", "1.0,0.8",
         "--trials", "20000", "--min-accepted", "100", "--fine-step", "2^-8", "--seed", "1"],
        "a4df3455116f5c3135170d68a7831d51b54c6147d77b42e6619461f994cce266",
    ),
    "girsanov-ratio": (
        ["girsanov-ratio", "--phi", "line 1 0", "--deltas", "1.0,0.8,0.7,0.6",
         "--trials", "20000", "--seed", "5"],
        "154f2d4b99595d23580b989717a1a42efea962814351ff02caffdf53f3a9f6c5",
    ),
    "simulate": (
        ["simulate", "--seed", "5"],
        "548efd52f8f3f7cad95b20eae302d33945807ced4553167bc1c158650f18f0b0",
    ),
    "helix": (
        ["helix"],
        "db9bfb094ae00336a31076d7a3da37f7d65e6d366bd560b1a3c4b2b8fd00bcbd",
    ),
    "energy-diverge": (
        ["energy-diverge", "--trials", "128", "--seed", "5"],
        "295ed6eed32821a1acfeb61ff5e09276a7ff7dc2857b9f1a2b473c70c4a346c1",
    ),
    "ws-converge-linear": (
        ["ws-converge", "--trials", "200", "--fine-step", "2^-10",
         "--deltas", "2^-2,2^-3,2^-4", "--seed", "5"],
        "79e1dbc2a179919339bd4ba3d16b4a60d878694d9cfe839095c40b9c106a58bc",
    ),
    "ws-converge-smoothstep": (
        ["ws-converge", "--trials", "100", "--fine-step", "2^-10", "--deltas", "2^-2,2^-4",
         "--interpolant", "smoothstep", "--seed", "6"],
        "f02d42437a155e9732545bde32ada51dd21223461b956329796af270298c1b17",
    ),
    "tube-escalating": (
        ["tube", "--phi", "line 1 0", "--fine-step", "2^-8", "--epsilon", "0.9",
         "--deltas", "0.9,0.8,0.7,0.6", "--min-accepted", "16", "--budget", "50000",
         "--trials", "5000", "--seed", "1003"],
        "c504f9a72bf9b1dd7c27b365f261de58a86554492f3d4f456e1486c5a2b5e46f",
    ),
    "levy-law": (
        ["levy-law", "--fine-step", "2^-12", "--lambdas", "0.5,1,2",
         "--trials", "4000", "--seed", "1001"],
        "69bf593f75dcd26b456877d2e5aeb2a38ef470d4b013e765682a98d1cd079ec0",
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_pinned_csv_bytes(name, tmp_path):
    argv, digest = GOLDEN[name]
    result = CliRunner().invoke(main, [*argv, "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    (csv_path,) = [p for p in tmp_path.iterdir() if p.suffix == ".csv"]
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == digest
