"""scripts/bench_point.py compares two checkouts only when they run the same
benchmark, and fingerprints each side's src/ tree."""

import os
import subprocess

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "scripts")


@pytest.fixture
def bench_point(monkeypatch):
    monkeypatch.syspath_prepend(SCRIPTS)
    import bench_point

    return bench_point


def _tree(root, files):
    for rel, text in files.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
    return str(root)


def test_bench_files_must_match(bench_point, tmp_path):
    same = {"BENCHMARK.json": "{}", "perfbench/run.py": "x = 1\n", "src/m.py": "a\n"}
    parent = _tree(tmp_path / "parent", same)
    change = _tree(tmp_path / "change", dict(same, **{"src/m.py": "b\n",
                                                      "perfbench/__pycache__/run.pyc": "c"}))
    assert bench_point.differing_bench_files(parent, change) == []
    _tree(tmp_path / "change", {"perfbench/run.py": "x = 2\n", "perfbench/new.py": ""})
    assert bench_point.differing_bench_files(parent, change) == ["perfbench/new.py",
                                                                 "perfbench/run.py"]


def test_src_digest_follows_source_bytes_only(bench_point, tmp_path):
    a = _tree(tmp_path / "a", {"src/pkg/m.py": "a\n"})
    b = _tree(tmp_path / "b", {"src/pkg/m.py": "a\n", "src/pkg/__pycache__/m.pyc": "x",
                               "src/pkg.egg-info/PKG-INFO": "y"})
    c = _tree(tmp_path / "c", {"src/pkg/m.py": "b\n"})
    assert bench_point.tree_sha256(a, "src") == bench_point.tree_sha256(b, "src")
    assert bench_point.tree_sha256(a, "src") != bench_point.tree_sha256(c, "src")


def test_revision_marks_a_dirty_checkout(bench_point, tmp_path):
    repo = _tree(tmp_path / "repo", {"src/m.py": "a\n"})
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
           "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "one"]):
        subprocess.run(git + args, cwd=repo, check=True, capture_output=True)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, check=True,
                          capture_output=True, text=True).stdout.strip()
    assert bench_point.revision(repo) == head
    _tree(tmp_path / "repo", {"src/m.py": "b\n"})
    assert bench_point.revision(repo) == head + "-dirty"
    assert bench_point.revision(_tree(tmp_path / "archive", {"src/m.py": "a\n"})) is None
