"""Seeded CLI output against the digests in tests/data/golden.json."""
import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "golden.py"


def test_seeded_outputs_match_golden_digests():
    spec = importlib.util.spec_from_file_location("golden", TOOL)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    recorded = golden.io.load_json(golden.GOLDEN)
    env = golden.environment()
    if recorded["environment"] != env:
        pytest.skip(f"digests recorded on {recorded['environment']}; float "
                    f"bits may differ on {env}")
    assert golden.differences(recorded, golden.run_corpus()) == []
