"""Every golden case's exit code, stdout, stderr, warnings and written files
match its fixture under ``tests/golden/``.

The float rule for environments other than the recorded one is stated in
``golden_cases``: there numbers compare to 1e-12 relative, text and
integers still exactly.  ``PYTHONPATH=src python tests/golden_cases.py``
regenerates the fixtures.
"""

import json

import pytest

import golden_cases as golden

RECORDED = json.loads((golden.GOLDEN / "environment.json").read_text())
EXACT = golden.environment() == RECORDED


def test_every_fixture_is_a_case(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for seed in golden.SEEDS:
        want = {golden.fixture_path(name, seed) for name, _, _ in golden.cases(seed)}
        assert set((golden.GOLDEN / f"s{seed}").glob("*.json")) == want


@pytest.mark.parametrize("seed", golden.SEEDS)
def test_outputs_match_the_fixtures(tmp_path, seed):
    moved = {}
    for name, got in golden.run_all(seed, tmp_path).items():
        want = json.loads(golden.fixture_path(name, seed).read_text())
        diffs = golden.differences(want, json.loads(json.dumps(got)), EXACT)
        if diffs:
            moved[name] = diffs[:5]
    assert moved == {}, f"exact={EXACT}; regenerate with tests/golden_cases.py if intended"
