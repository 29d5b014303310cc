"""Shared fixtures: one figure-dataset build per session and a small CSV reader."""

import csv
import math

import pytest
from hypothesis import settings

from spinphase.cli import main

# property tests draw the same examples on every run, so tier-1 stays deterministic
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None, max_examples=60)
settings.load_profile("deterministic")


def load_csv(path):
    """Read one output CSV into (metadata dict, header list, float rows, note lines)."""
    metadata = {}
    notes = []
    header = None
    rows = []
    with open(path, newline="") as handle:
        for record in csv.reader(handle):
            if not record:
                continue
            first = record[0]
            if first.startswith("# warning:"):
                notes.append(first[len("# warning:") :].strip())
                continue
            if first.startswith("#"):
                key, _, value = first[1:].partition("=")
                metadata[key.strip()] = value.strip()
                continue
            if header is None:
                header = record
                continue
            rows.append([float(tok) for tok in record])
    return metadata, header, rows, notes


def column(header, rows, name):
    idx = header.index(name)
    return [row[idx] for row in rows]


def finite(values):
    return [v for v in values if not math.isnan(v)]


@pytest.fixture(scope="session")
def fig_dir(tmp_path_factory):
    """All four figure datasets, generated once through the CLI entry point."""
    out = tmp_path_factory.mktemp("figs")
    for fig_id in (1, 2, 3, 4):
        assert main(["fig", "--id", str(fig_id), "--out", str(out)]) == 0
    return out
