"""Snapshot test pinning the curated public surface (:mod:`repro.api`).

``repro.api.__all__`` is compared name-for-name against the committed
manifest ``tests/data/public_api_manifest.txt``.  Any addition, rename
or removal of a public name fails here until the manifest is updated in
the same change — surface evolution becomes an explicit, reviewable
diff instead of an accident.

Regenerate the manifest after an *intentional* surface change with::

    PYTHONPATH=src python -c "import repro.api; \
        print('\\n'.join(repro.api.__all__))" > tests/data/public_api_manifest.txt
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
import repro.api as api

MANIFEST = Path(__file__).parent / "data" / "public_api_manifest.txt"


def _manifest_names() -> list:
    return [
        line.strip()
        for line in MANIFEST.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    ]


class TestSurfaceSnapshot:
    def test_all_matches_committed_manifest_exactly(self):
        """The full ordered surface is pinned — additions and removals
        both fail until the manifest is updated deliberately."""
        expected = _manifest_names()
        actual = list(api.__all__)
        added = sorted(set(actual) - set(expected))
        removed = sorted(set(expected) - set(actual))
        assert actual == expected, (
            f"public surface drifted from tests/data/public_api_manifest.txt "
            f"(added={added}, removed={removed}); if the change is "
            f"intentional, regenerate the manifest (see module docstring)"
        )

    def test_every_name_in_all_is_importable(self):
        for name in api.__all__:
            assert hasattr(api, name), f"repro.api.__all__ lists {name!r} but it is not defined"

    def test_no_duplicates(self):
        assert len(api.__all__) == len(set(api.__all__))

    def test_manifest_has_no_duplicates(self):
        names = _manifest_names()
        assert len(names) == len(set(names))


class TestSurfaceContracts:
    """Spot-checks that the curated names are the same objects as their
    home-module definitions (re-exports, not copies)."""

    def test_execution_policy_identity(self):
        from repro.core.runtime import ExecutionPolicy

        assert api.ExecutionPolicy is ExecutionPolicy
        assert repro.ExecutionPolicy is ExecutionPolicy

    def test_error_taxonomy_identity_and_hierarchy(self):
        import repro.errors as errors

        for name in (
            "ReproError",
            "ConfigurationError",
            "RouteError",
            "RuntimeFailure",
            "CheckpointCorruption",
        ):
            assert getattr(api, name) is getattr(errors, name)
        assert issubclass(api.CheckpointCorruption, api.RuntimeFailure)
        assert issubclass(api.RuntimeFailure, api.ReproError)
        assert issubclass(api.RouteError, (api.ReproError, ValueError))

    def test_measurement_entry_points_identity(self):
        from repro.core import estimate_mixing_time, measure_mixing

        assert api.measure_mixing is measure_mixing
        assert api.estimate_mixing_time is estimate_mixing_time

    def test_top_level_package_exports_runtime_names(self):
        for name in (
            "ExecutionPolicy",
            "RouteError",
            "RuntimeFailure",
            "CheckpointCorruption",
        ):
            assert name in repro.__all__
            assert hasattr(repro, name)

    def test_version_is_exported(self):
        assert api.__version__ == repro.__version__


class TestPolicySurface:
    """The ExecutionPolicy fields named in docs/API.md exist and default
    as documented — a rename in the dataclass breaks this before it
    breaks a user."""

    FIELDS = (
        "workers",
        "block_size",
        "max_retries",
        "shard_timeout",
        "checkpoint_dir",
        "resume",
        "backend",
        "memory_budget",
    )

    def test_fields(self):
        import dataclasses

        names = [f.name for f in dataclasses.fields(api.ExecutionPolicy)]
        assert names == list(self.FIELDS)

    def test_defaults(self):
        p = api.DEFAULT_POLICY
        assert p.workers is None
        assert p.block_size is None
        assert p.max_retries == 2
        assert p.shard_timeout is None
        assert p.checkpoint_dir is None
        assert p.resume is True
        assert p.backend == "numpy"
        assert p.memory_budget is None

    def test_frozen(self):
        with pytest.raises(Exception):
            api.DEFAULT_POLICY.workers = 4
