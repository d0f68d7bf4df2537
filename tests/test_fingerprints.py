"""Every CSV of the pinned runs against its recorded fingerprint.

``fingerprints.json`` records, for each run in ``fingerprints.RUNS``,
every file's sha256, row count and header, and each numeric column's
finite count, sum and L2 norm.  Rewrite it with
``PYTHONPATH=src python tests/fingerprints.py``.

* On any machine, headers, row counts and finite counts match exactly.
  Sums and norms match within ``REL_BOUND`` (1e-12) of the column's
  scale where the numpy version and the platform equal those recorded,
  and within ``OTHER_BOUND`` (1e-9) elsewhere.
* Where the Python, numpy and scipy versions, the platform and numpy's
  SIMD targets equal those recorded, every file's sha256 matches too,
  and a mismatch names the columns whose cells changed; elsewhere that
  test is skipped, naming what differs.
"""

import json

import pytest

from fingerprints import RECORD, column_bound, column_moves, environment
from fingerprints import fingerprints, run_all


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    out = tmp_path_factory.mktemp("fingerprints")
    run_all(out)
    return fingerprints(out)


@pytest.fixture(scope="module")
def record():
    return json.loads(RECORD.read_text())


def test_columns_match_record(fresh, record):
    moves = column_moves(record["files"], fresh)
    bound = column_bound(record["environment"])
    failed = [message for move, message in moves if move > bound]
    assert not failed, "\n".join(failed)


def test_bytes_match_record(fresh, record):
    recorded, here = record["environment"], environment()
    differ = {k: (v, recorded.get(k)) for k, v in here.items() if v != recorded.get(k)}
    if differ:
        pytest.skip(f"bytes recorded in another environment (here, recorded): {differ}")
    changed = []
    for name, old in record["files"].items():
        new = fresh.get(name, {"sha256": None, "digests": {}})
        if new["sha256"] != old["sha256"]:
            # a changed file names its changed columns, down to one ulp
            digests = old["digests"].items()
            columns = [c for c, d in digests if new["digests"].get(c) != d]
            changed.append(f"{name}: bytes changed in columns {columns}")
    assert not changed, "\n".join(changed)
