"""``python -m repro.bench`` command line: the case table and reproducibility."""

import os
import subprocess
import sys

from repro.bench import __main__ as bench_main
from repro.bench.figures import FIGURES, WALL_CLOCK
from repro.bench.report import RESULTS_DIR

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class TestCaseDispatch:
    def test_every_selected_case_runs_in_order(self, monkeypatch):
        # Regression: `--smoke --serve` used to run only `--smoke` (the
        # first match of an if-chain) and silently drop the rest.
        ran = []
        monkeypatch.setattr(bench_main, "run_case", ran.append)
        # Given out of order on purpose: cases run in CASES order.
        assert bench_main.main(["--precision", "--serve", "--smoke"]) == 0
        assert ran == [bench_main.CASES[f] for f in ("smoke", "serve", "precision")]

    def test_no_flag_regenerates_everything(self, monkeypatch):
        ran = []
        monkeypatch.setattr(bench_main, "run_case", ran.append)
        assert bench_main.main([]) == 0
        assert ran == [bench_main.FULL]
        assert set(bench_main.FULL.figures) == set(FIGURES)
        assert set(bench_main.FULL.sweeps) == set(bench_main.SWEEPS)

    def test_run_case_saves_what_it_builds(self, monkeypatch, tmp_path, capsys):
        import repro.bench.report as report

        monkeypatch.setattr(report, "RESULTS_DIR", str(tmp_path))
        bench_main.run_case(bench_main.Case("t", figures=("inline_redundancy",)))
        table = FIGURES["inline_redundancy"]().table
        with open(tmp_path / "inline_redundancy.txt") as fh:
            assert fh.read() == table.rstrip() + "\n"
        assert table in capsys.readouterr().out


class TestOneCatalogue:
    def test_cases_name_only_registered_entries(self):
        for flag, case in bench_main.CASES.items():
            assert case.figures or case.sweeps, flag
            assert set(case.figures) <= set(FIGURES), flag
            assert set(case.sweeps) <= set(bench_main.SWEEPS), flag

    def test_results_dir_is_exactly_the_registries(self):
        # No orphan (a file nothing regenerates) and no duplicate (two
        # entries behind one file): the suite never writes this
        # directory, so its listing is the committed set.
        assert not set(FIGURES) & set(bench_main.SWEEPS)
        assert WALL_CLOCK <= set(FIGURES)
        assert sorted(os.listdir(RESULTS_DIR)) == sorted(
            [f"{name}.txt" for name in FIGURES]
            + [f"{name}.json" for name in bench_main.SWEEPS]
        )


def _git_status():
    done = subprocess.run(
        ["git", "status", "--porcelain"], cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    return done.stdout if done.returncode == 0 else None   # not a checkout


def test_smoke_twice_leaves_the_checkout_unchanged():
    """The cases rewrite committed goldens — a sweep JSON and a figure
    table here; neither embeds a timestamp, so running them — and
    running them again — must not dirty the tree."""
    path = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])
    )
    before = _git_status()
    for _ in range(2):
        subprocess.run(
            [sys.executable, "-m", "repro.bench", "--smoke", "--memory"],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
            check=True, stdout=subprocess.DEVNULL,
        )
    assert _git_status() == before
