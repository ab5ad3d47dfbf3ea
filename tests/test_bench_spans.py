"""The benchmark's traced runs expect named spans to fire; a span that no
longer binds (a function renamed, or called past its module binding) marks
every traced run incorrect.  This test runs one tiny operation per workload
under the benchmark's own tracer, with ``bench/`` read but not changed."""
import pathlib
import sys

import pytest

from interfero import bosonrep, sunrep

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import tracer
    import workloads
    return tracer, workloads


def test_every_expected_span_fires(bench, monkeypatch, tmp_path):
    tracer_mod, workloads = bench
    # canonical bases built earlier in the session would skip basis_set
    monkeypatch.setattr(sunrep, "_CANONICAL_CACHE", {})
    monkeypatch.setattr(sunrep, "_TABLE_CACHE", {})
    expected = set()
    for workload in workloads.WORKLOADS.values():
        expected |= set(workload.expected_spans)
    workloads.write_matrix(tmp_path / "u8.json", workloads.haar_unitary(8, 3))
    workloads.write_matrix(tmp_path / "g3.json",
                           workloads.special_unitary(3, 4))
    path = {name: str(tmp_path / name) for name in
            ("trials.json", "bundle", "result.json", "u8.json", "plan.json",
             "rec.json", "g3.json", "dfunc.json", "verify.json")}
    ops = [
        ["trials", "--m", "3", "--variant", "full", "--trials", "1",
         "--seed", "2", "--out", path["trials.json"]],
        ["simulate", "--m", "3", "--gamma", "0.95", "--seed", "3",
         "--out", path["bundle"]],
        ["characterize", "--data", path["bundle"], "--bootstrap", "3",
         "--seed", "1", "--out", path["result.json"]],
        ["decompose", "--in", path["u8.json"], "--ns", "4", "--np", "2",
         "--out", path["plan.json"]],
        ["reconstruct", "--in", path["plan.json"], "--out", path["rec.json"]],
        ["dfunc", "--in", path["g3.json"], "--irrep", "1,1",
         "--out", path["dfunc.json"]],
        ["verify-identities", "--group", "su4", "--trials", "1", "--seed", "5",
         "--out", path["verify.json"]],
    ]
    tracer = tracer_mod.Tracer(sorted(expected))
    tracer.install()
    try:
        codes = [workloads.run_cli(argv).rc for argv in ops]
        bosonrep.minor_basis_count((1, 1), seed=7)
    finally:
        tracer.uninstall()
    assert codes == [0] * len(ops)
    assert sorted(expected - tracer.fired()) == []


def test_trials_op_fires_every_mc_trials_span(bench, tmp_path):
    # the union above would not notice a trials path that skipped a span
    # which another workload still fires
    tracer_mod, workloads = bench
    expected = set(workloads.McTrials.expected_spans)
    tracer = tracer_mod.Tracer(sorted(expected))
    tracer.install()
    try:
        code = workloads.run_cli(
            ["trials", "--m", "3", "--variant", "full", "--trials", "2",
             "--seed", "2", "--out", str(tmp_path / "trials.json")]).rc
    finally:
        tracer.uninstall()
    assert code == 0
    assert sorted(expected - tracer.fired()) == []
    stats = tracer.layer_stats()
    assert stats["characterize.characterize_dataset"]["calls"] == 1
