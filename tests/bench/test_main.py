"""``python -m repro.bench`` command line: flag dispatch and reproducibility."""

import os
import subprocess
import sys

from repro.bench import __main__ as bench_main

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class TestCaseDispatch:
    def test_every_selected_case_runs_in_order(self, monkeypatch):
        # Regression: `--smoke --serve` used to run only `--smoke` (the
        # first match of an if-chain) and silently drop the rest.
        ran = []

        def stub(name, status):
            return (lambda: ran.append(name) or status), f"stub {name}"

        monkeypatch.setitem(bench_main.CASES, "smoke", stub("smoke", 0))
        monkeypatch.setitem(bench_main.CASES, "serve", stub("serve", 3))
        monkeypatch.setitem(bench_main.CASES, "overlap", stub("overlap", 5))
        # Given out of order on purpose: cases run in CASES order.
        assert bench_main.main(["--overlap", "--serve", "--smoke"]) == 3
        assert ran == ["smoke", "serve", "overlap"]

    def test_no_flag_regenerates_everything(self, monkeypatch):
        ran = []
        monkeypatch.setattr(bench_main, "run_full", lambda: ran.append("full") or 0)
        assert bench_main.main([]) == 0
        assert ran == ["full"]


def _git_status():
    done = subprocess.run(
        ["git", "status", "--porcelain"], cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    return done.stdout if done.returncode == 0 else None   # not a checkout


def test_smoke_twice_leaves_the_checkout_unchanged():
    """The smoke sweep rewrites a committed golden JSON; it embeds no
    timestamp, so running it — and running it again — must not dirty
    the tree."""
    path = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])
    )
    before = _git_status()
    for _ in range(2):
        subprocess.run(
            [sys.executable, "-m", "repro.bench", "--smoke"],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
            check=True, stdout=subprocess.DEVNULL,
        )
    assert _git_status() == before
