"""How the rerun of a stored manifest is held to the CSV stored with it."""

import csv
import io
from pathlib import Path

# The float64 loops every stored fixture was written on: numpy's AVX-512 ones.
# Manifests written before 0.8.0 have no numerics block that says so.
FIXTURE_LOOPS = {"tan": "X86_V4", "exp": "X86_V4", "expm1": "X86_V4"}


def written_loops(manifest: dict) -> dict:
    """The float64 loops a manifest was written on, X86_V4 where it does not say."""
    return manifest.get("numerics", {}).get("float64_loops", FIXTURE_LOOPS)


def assert_bytes_on_the_same_loops(redo: Path, stored: Path, manifest: dict, loops: dict):
    """The rerun's bytes when it ran on the float64 loops the manifest was written
    on, and assert_within_1e_12 otherwise: tan, exp and expm1 round differently
    on another SIMD dispatch."""
    if written_loops(manifest) == loops:
        assert redo.read_bytes() == stored.read_bytes()
    else:
        assert_within_1e_12(redo, stored)


def assert_within_1e_12(redo: Path, stored: Path, moving=("value", "std_error")):
    """The rerun's rows keep every field but those named in moving, which move
    by at most 1e-12."""
    got, want = (list(csv.DictReader(io.StringIO(p.read_text(), newline="")))
                 for p in (redo, stored))
    assert len(got) == len(want) > 0
    for row, old in zip(got, want):
        assert list(row) == list(old)  # the header
        for field in set(row) - set(moving):  # t, tau, n_samples, labels
            assert row[field] == old[field]
        for field in moving:
            if old[field]:  # empty for the oracle's std_error
                assert abs(float(row[field]) - float(old[field])) <= 1e-12
            else:
                assert row[field] == ""
