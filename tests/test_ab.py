"""The summary of tools/ab.py on canned benchmark results."""
import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "ab.py"
END_TO_END = [
    {"name": "units_per_s", "better": "higher", "bound": 0.25},
    {"name": "op_p50_s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
]


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(seed, pair, tree, **metrics):
    return {"seed": seed, "pair": pair, "tree": tree, "exit_code": 0,
            "correct": True, "failed": 0, "metrics": metrics}


def test_summary_of_a_resolved_gain(ab):
    units = {"base": [100, 110, 90, 105, 95], "change": [150, 100, 140,
                                                         160, 150]}
    p50 = {"base": [0.010] * 5, "change": [0.011, 0.009, 0.012, 0.010, 0.013]}
    rss = {"base": [50.0] * 5, "change": [53.0] * 5}
    runs = [run(1, i, t, units_per_s=units[t][i], op_p50_s=p50[t][i],
                peak_rss_mb=rss[t][i])
            for i in range(5) for t in ("change", "base")]
    s = ab.summarize(runs, END_TO_END)["1"]

    u = s["units_per_s"]
    assert u["base_median"] == 100 and u["change_median"] == 150
    assert u["base_range"] == [90, 110] and u["change_range"] == [100, 160]
    assert u["base_iqr"] == 10     # quartiles 95 and 105
    assert u["ratio"] == 1.5
    assert u["pairs"] == 5 and u["pairs_won"] == 4   # pair 1 lost
    assert u["resolved"] is True and u["crosses_bound"] is False

    # lower is better: a slower median that stays inside the bound
    t = s["op_p50_s"]
    assert t["base_iqr"] == 0.0 and t["pairs_won"] == 1
    assert t["ratio"] == pytest.approx(1.1)
    assert t["resolved"] is False and t["crosses_bound"] is False

    # 6% more memory crosses a 5% bound
    m = s["peak_rss_mb"]
    assert m["ratio"] == pytest.approx(1.06)
    assert m["pairs_won"] == 0 and m["crosses_bound"] is True


def test_summary_per_seed_and_missing_runs(ab):
    runs = [run(1, 0, "base", units_per_s=100.0),
            run(1, 0, "change", units_per_s=70.0),
            run(7, 0, "base", units_per_s=100.0),
            run(7, 0, "change"),    # a run that printed no result
            run(7, 1, "change", units_per_s=101.0),
            run(7, 1, "base", units_per_s=99.0)]
    s = ab.summarize(runs, END_TO_END[:1])
    assert sorted(s) == ["1", "7"]
    assert s["1"]["units_per_s"]["crosses_bound"] is True   # 0.70 < 0.75
    assert s["1"]["units_per_s"]["pairs_won"] == 0
    seven = s["7"]["units_per_s"]
    assert seven["pairs"] == 1 and seven["pairs_won"] == 1
    assert seven["change_range"] == [101.0, 101.0]
    assert seven["base_iqr"] == pytest.approx(0.5)
    assert seven["resolved"] is True
    nothing = ab.summarize([run(3, 0, "base"), run(3, 0, "change")],
                           END_TO_END[:1])
    assert nothing["3"]["units_per_s"] == {"pairs": 0, "missing": True}
