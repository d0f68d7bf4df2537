"""Every CSV and every stdout of the pinned runs against the record.

``fingerprints.json`` records, for each run in ``fingerprints.RUNS``,
its stdout and every file's sha256, row count and header, and each
numeric column's finite count, sum and L2 norm.  Rewrite it with
``PYTHONPATH=src python tests/fingerprints.py``.

* On any machine, headers, row counts and finite counts match exactly.
  Sums and norms match within ``REL_BOUND`` (1e-12) of the column's
  scale where the numpy version and the platform equal those recorded,
  and within ``OTHER_BOUND`` (1e-9) elsewhere.  The lines that
  ``README.md`` quotes from a run's stdout are in that stdout.
* Where the Python, numpy and scipy versions, the platform and numpy's
  SIMD targets equal those recorded, every file's sha256 and every run's
  stdout match too; a mismatch names the columns whose cells changed, or
  the run and its first differing line.  Elsewhere that test is skipped,
  naming what differs: ``reproduce`` prints ``%.8g`` values, which
  another numpy may round otherwise.
"""

import json
from pathlib import Path

import pytest

from fingerprints import RECORD, column_bound, column_moves, environment
from fingerprints import fresh_record, stdout_moves

README = Path(__file__).parents[1] / "README.md"

# Lines that README.md quotes, by the run that prints them.
README_QUOTES = {
    "product protocol": "two-pass: closed=0.859015 simulated=0.858207 rel=-9.40e-04",
    "two-pass protocol": "closed=0.886430 simulated=0.871827",
}


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    return fresh_record(tmp_path_factory.mktemp("fingerprints"))


@pytest.fixture(scope="module")
def record():
    return json.loads(RECORD.read_text())


def test_columns_match_record(fresh, record):
    moves = column_moves(record["files"], fresh["files"])
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
        new = fresh["files"].get(name, {"sha256": None, "digests": {}})
        if new["sha256"] != old["sha256"]:
            # a changed file names its changed columns, down to one ulp
            digests = old["digests"].items()
            columns = [c for c, d in digests if new["digests"].get(c) != d]
            changed.append(f"{name}: bytes changed in columns {columns}")
    changed += stdout_moves(record["stdout"], fresh["stdout"])
    assert not changed, "\n".join(changed)


def test_readme_quotes_match_runs(fresh):
    readme = README.read_text()
    for run, quote in README_QUOTES.items():
        assert quote in readme, f"{run}: README.md does not quote {quote!r}"
        assert quote in fresh["stdout"][run], f"{run}: stdout does not print {quote!r}"
