"""A run loads only the scipy it executes.

Each case runs in a fresh interpreter (an imported module stays
imported, so one process cannot tell which step loaded it) and reports
the ``scipy`` modules loaded once its code has run, with NumPy's
``f2py`` and ``testing``, which ``scipy.sparse`` brings in: none for an
import, an analytic run, an operator built but never multiplied, or a
training step (the operator is the repository's own, and its product
loads scipy's compiled CSR loop from its file, under a name of this
package), ``scipy.spatial`` only for a k-NN graph.  A last case takes a
product and then imports ``scipy.sparse`` in the same process: the
package still binds its own compiled module, and its product is the
operator's bit for bit.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

CASES = {
    "import": "import repro",
    "analytic-sweep": """
        import repro
        repro.run_sweep(models=["gcn", "gat"], datasets=["cora"],
                        strategies=["dgl-like", "ours"])
    """,
    "operator-build": """
        import numpy as np
        from repro.graph import chung_lu
        graph = chung_lu(30, 120, seed=1)
        graph.adjacency("in", np.float32, 2), graph.incidence("out", np.float64)
        graph.row_block("in", 0, 10).adjacency("in", np.float32)
    """,
    "train-step": """
        import numpy as np
        from repro.frameworks import compile_training, get_strategy
        from repro.graph import chung_lu
        from repro.models import GCN
        from repro.train import Adam, Trainer
        graph = chung_lu(30, 120, seed=1).add_self_loops()
        trainer = Trainer(compile_training(GCN(4, (4, 3)), get_strategy("ours")), graph)
        rng = np.random.default_rng(0)
        trainer.train_step(rng.normal(size=(30, 4)), rng.integers(0, 3, 30), Adam())
    """,
    "product-then-scipy-sparse": """
        import numpy as np
        from repro.graph import chung_lu
        from repro.graph.csr import adjacency_operator
        unit, _ = chung_lu(30, 120, seed=1).adjacency("in", np.float32)
        rng = np.random.default_rng(0)
        w = rng.normal(size=unit.data.shape[0]).astype(np.float32)
        op = adjacency_operator(unit.indptr, unit.indices, 30, w)
        x = rng.normal(size=(30, 5)).astype(np.float32)
        ours = op @ x
        import scipy.sparse
        assert scipy.sparse._sparsetools.csr_matvecs is not None
        theirs = scipy.sparse.csr_array((op.data, op.indices, op.indptr), op.shape) @ x
        assert theirs.dtype == ours.dtype and theirs.tobytes() == ours.tobytes()
    """,
    "knn-graph": """
        import numpy as np
        from repro.graph import knn_graph
        knn_graph(np.random.default_rng(0).normal(size=(20, 3)), 4)
    """,
}


def _scipy_loaded(case):
    script = textwrap.dedent(CASES[case]) + textwrap.dedent("""
        import json, sys
        print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                                or m.startswith(("numpy.f2py", "numpy.testing")))))
    """)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    return set(json.loads(result.stdout.splitlines()[-1]))


@pytest.mark.parametrize("case", ["import", "analytic-sweep", "operator-build", "train-step"])
def test_no_scipy_package_is_imported(case):
    assert _scipy_loaded(case) == set()


def test_scipy_sparse_imported_after_a_product_binds_its_own_loop():
    assert "scipy.sparse._sparsetools" in _scipy_loaded("product-then-scipy-sparse")


def test_knn_graph_loads_spatial():
    assert "scipy.spatial" in _scipy_loaded("knn-graph")
