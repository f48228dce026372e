"""tools/pairs.py: the paired-run order and the summaries of BENCH files."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _pairs_module():
    if "qccs_tools_pairs" not in sys.modules:
        spec = importlib.util.spec_from_file_location("qccs_tools_pairs",
                                                      ROOT / "tools" / "pairs.py")
        module = sys.modules["qccs_tools_pairs"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules["qccs_tools_pairs"]


def test_summarise_reproduces_every_committed_summary():
    pairs = _pairs_module()
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert len(files) >= 19
    summaries = 0
    for path in files:
        doc = json.loads(path.read_text(encoding="utf-8"))
        committed = [(p, json.dumps(one["summary"])) for p, one in pairs._sets(doc)]
        assert pairs.summarise(doc) == [], path.name
        assert [(p, json.dumps(one["summary"])) for p, one in pairs._sets(doc)] == committed
        summaries += sum(len(one["summary"]) for _, one in pairs._sets(doc))
    assert summaries >= 264


def test_pairs_run_in_abba_order():
    pairs = _pairs_module()
    calls = []

    def run(tree, workload, seed):
        calls.append((tree, seed))
        value = 10.0 + seed + (0.5 if tree == "B" else 0.0) + 0.25 * len(calls)
        metrics = {m: {"value": value, "unit": "u"} for m in ("ops_per_s", "setup_s")}
        return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}

    got = pairs.run_pairs({"parent": "A", "change": "B"}, "w", [1, 2, 3, 4], run)
    assert calls == [("A", 1), ("B", 1), ("B", 2), ("A", 2),
                     ("A", 3), ("B", 3), ("B", 4), ("A", 4)]
    assert [p["first"] for p in got] == ["parent", "change", "parent", "change"]
    one = pairs.workload_set(got, {"ops_per_s": "higher", "setup_s": "lower"})
    assert one["correct"] and one["failed_ops"] == {"parent": 0, "change": 0}
    assert one["summary"]["ops_per_s"]["pairs_won"] == "4/4"
    assert one["summary"]["setup_s"]["pairs_won"] == "0/4"
    assert set(one["summary"]["ops_per_s"]) == {
        "better", "parent_median", "parent_quartiles", "change_median", "change_quartiles",
        "pairs_won"}
    assert one["ratios"]["ops_per_s"]["median_ratio"] > 1
    assert set(one["ratios"]["ops_per_s"]) == {"median_ratio", "first_to_second"}

    copy = pairs.run_pairs({"parent": "A", "parent_copy": "A2"}, "w", [1, 2], run)
    summary = pairs.workload_set(copy, {"ops_per_s": "higher"})["summary"]["ops_per_s"]
    assert {"copy_median", "copy_quartiles", "copy_pairs_won"} <= set(summary)
