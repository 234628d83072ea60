"""The benchmark's emitted files against the sha256 digests it records.

`bench/workloads.py` names each benchmark run (op name, argv, output file)
and `bench/reference.json` records the digest of each unseeded run's bytes;
both are read here, so neither list is repeated in the tests.
"""

import csv
import hashlib
import json
import runpy
from pathlib import Path

import pytest

from cvteleport.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
WORKLOADS = runpy.run_path(str(BENCH / "workloads.py"))["WORKLOADS"]
DIGESTS = json.loads((BENCH / "reference.json").read_text())["digests"]
# seeded runs (Monte Carlo) depend on --seed and have no digest
OPS = {op.name: op for build in WORKLOADS.values() for op in build(0) if not op.seeded}

# The reference was taken at 7b0ed8c; these outputs have moved since, on
# purpose, and wait for the digests to be recorded again (ROADMAP item 1).
STALE = {
    "figure fig5",
    *(f"teleport {method} D={dim}" for method in ("series", "radial", "grid2d")
      for dim in (20, 132, 454, 915)),
}
_STALE_MARK = pytest.mark.xfail(
    raises=AssertionError, strict=True,
    reason="digest recorded at 7b0ed8c, before this output moved; re-recorded by ROADMAP item 1",
)


@pytest.mark.parametrize(
    "name",
    [pytest.param(name, marks=_STALE_MARK if name in STALE else (), id=name) for name in OPS],
)
def test_output_matches_reference_digest(name, tmp_path):
    # a refused argv first: the reused parser must carry nothing into the next call
    assert main(["teleport", "--chi", "2"]) == 2
    op = OPS[name]
    out = tmp_path / op.out
    assert main([*op.argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[name]


def test_pdist_csv_equals_the_digested_json(tmp_path):
    # the pdist rows as CSV are the digested JSON rows, cell for cell and type for type
    argv = OPS["sweep pdist json"].argv
    assert argv[-2:] == ("--format", "json")
    assert main([*argv, "--out", str(tmp_path / "pdist.json")]) == 0
    assert main([*argv[:-2], "--out", str(tmp_path / "pdist.csv")]) == 0
    kinds = (float, float, int, str, float, int)  # chi, g, p, metric, value, extra
    with open(tmp_path / "pdist.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    records = json.loads((tmp_path / "pdist.json").read_text())
    assert len(rows) == len(records) > 0
    for i, (row, record) in enumerate(zip(rows, records)):
        assert list(record) == header, i
        assert tuple(map(type, record.values())) == kinds, i
        assert tuple(kind(cell) for kind, cell in zip(kinds, row, strict=True)) == tuple(
            record.values()
        ), i
