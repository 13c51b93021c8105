"""The pytest benchmarks keep tracked timing history honest.

``benchmarks/results/BENCH_*`` files are per-SHA history: a run from a
tree with uncommitted source changes times code no SHA names, so it
must print its numbers and leave those files byte-identical.  The
deterministic figure tables are written either way.
"""

import benchmarks.conftest as bench


def _results(tmp_path, monkeypatch, sha: str):
    monkeypatch.setattr(bench, "RESULTS_DIR", tmp_path)
    monkeypatch.setattr(bench, "git_sha", lambda: sha)
    history = tmp_path / "BENCH_campaign.json"
    history.write_bytes(b'{"benchmark": "campaign_executor", "history": []}\n')
    return history


def test_dirty_tree_leaves_history_byte_identical(tmp_path, monkeypatch):
    history = _results(tmp_path, monkeypatch, "abc1234-dirty")
    before = history.read_bytes()
    assert not bench.write_tracked(history, '{"history": ["dirty"]}\n')
    bench.record("BENCH_campaign", "campaign executor [abc1234-dirty]")
    assert history.read_bytes() == before
    assert not (tmp_path / "BENCH_campaign.txt").exists()
    bench.record("fig7_alexnet", "a deterministic table")
    assert (tmp_path / "fig7_alexnet.txt").read_text() == "a deterministic table\n"


def test_outside_git_leaves_history_byte_identical(tmp_path, monkeypatch):
    history = _results(tmp_path, monkeypatch, "unknown")
    before = history.read_bytes()
    assert not bench.write_tracked(history, "{}\n")
    assert history.read_bytes() == before


def test_clean_commit_writes_history(tmp_path, monkeypatch):
    history = _results(tmp_path, monkeypatch, "abc1234")
    assert bench.write_tracked(history, '{"history": ["clean"]}\n')
    assert history.read_text() == '{"history": ["clean"]}\n'
    bench.record("BENCH_campaign", "campaign executor [abc1234]")
    assert (tmp_path / "BENCH_campaign.txt").exists()


def test_no_tracked_history_row_times_a_dirty_tree():
    """A ``<sha>-dirty`` row timed an uncommitted tree that no SHA names."""
    import json
    from pathlib import Path

    results = Path(__file__).resolve().parents[1] / "benchmarks" / "results"
    files = sorted(results.glob("BENCH_*.json"))
    assert files
    dirty = [
        (path.name, key, index)
        for path in files
        for key, rows in json.loads(path.read_text()).items()
        if isinstance(rows, list)
        for index, row in enumerate(rows)
        if isinstance(row, dict) and str(row.get("sha", "")).endswith("-dirty")
    ]
    assert dirty == []
