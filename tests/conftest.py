"""Shared fixtures."""

import errno
from pathlib import Path

import pytest
from hypothesis import settings

from soupkit import nn

# `--hypothesis-profile=ci`, as the CI's tier-1 step runs: every run draws the
# same examples, so a property that fails there fails the same way locally.
settings.register_profile("ci", derandomize=True, deadline=None)


class _FullDisk:
    """A writable file that takes half of the first write, then fails the way
    a full disk does."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@pytest.fixture
def full_disk(monkeypatch):
    """`full_disk(name)`: from then on, every file opened for writing whose
    name starts with `name` (a temp file beside it included) fails mid-write."""
    names = []
    real_open = Path.open

    def open_(self, mode="r", *args, **kwargs):
        fh = real_open(self, mode, *args, **kwargs)
        if any(c in mode for c in "wxa") and self.name.startswith(tuple(names)):
            return _FullDisk(fh)
        return fh

    monkeypatch.setattr(Path, "open", open_)
    return names.append


@pytest.fixture
def split_checks(monkeypatch):
    """The features of every split that `nn._check_fit` checks from then on,
    one entry per check."""
    checks = []
    real = nn._check_fit

    def spy(arch, features, labels):
        checks.append(features)
        real(arch, features, labels)

    monkeypatch.setattr(nn, "_check_fit", spy)
    return checks
