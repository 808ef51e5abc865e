"""The design's "one X" invariants, as queries over the source text.

Each row of ``GUARDS`` is a query over ``{relpath: text}`` returning the
offending ``path:line``\\ s, and a seeded violation: ``text`` inserted
into one file before the first ``at`` (default: at its start).  Every
query must come back empty on the tree and non-empty on its seed — a
guard that has never caught a violation is indistinguishable from one
that cannot.  No file is written.  Patterns are matched line by line,
as ``grep`` does.  A row id is ``<invariant>/<rule>`` (``+`` joins
invariants that state the same rule), so ``pytest -k one-ring`` runs
one invariant's rows.
"""

import ast
import functools
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
S = "src/repro/"
ENGINE, MULTI, KERNELS = S + "exec/engine.py", S + "exec/multi.py", S + "exec/kernels.py"
RINGS, CSR, SAMPLING = S + "exec/rings.py", S + "graph/csr.py", S + "graph/sampling.py"
SESSION, FIGURES = S + "session.py", S + "bench/figures.py"


@pytest.fixture(scope="module")
def sources():
    """Every file a guard reads: ``src/`` Python, ``examples/``,
    ``benchmarks/`` and the README, never ``__pycache__``."""
    paths = [*ROOT.glob("src/**/*.py"), ROOT / "README.md"]
    paths += [p for d in ("examples", "benchmarks") for p in (ROOT / d).rglob("*")
              if p.is_file() and "__pycache__" not in p.parts]
    return {p.relative_to(ROOT).as_posix(): p.read_text(encoding="utf-8") for p in paths}


def _hits(files, pattern, scope):
    """``path:line`` of every line under ``scope`` matching ``pattern``."""
    rx = re.compile(pattern, re.M)
    return [f"{path}:{no}" for path, text in sorted(files.items())
            if path.startswith(scope) and rx.search(text)
            for no, line in enumerate(text.split("\n"), 1) if rx.search(line)]


def forbidden(pattern, *scope, after=None):
    """No line under ``scope`` matches ``pattern``; with ``after``, no
    line of the one file in ``scope`` from ``after``'s first match on."""
    def query(files):
        if after is not None:
            (path,) = scope
            start = re.search(after, files[path], re.M)
            if start is None:
                return [f"{path}: no line matches {after!r}"]
            head = files[path][:start.start()]
            files = {path: "\n" * head.count("\n") + files[path][len(head):]}
        return _hits(files, pattern, scope)
    return query


def only_in(pattern, homes, within=("src/",), count=None, held=True):
    """Lines under ``within`` matching ``pattern`` lie in ``homes``, each
    of which holds one (unless ``held`` is false); ``count`` pins the
    number of lines where the invariant says "once"."""
    def query(files):
        hits = _hits(files, pattern, within)
        found = {hit.rsplit(":", 1)[0] for hit in hits}
        bad = [hit for hit in hits if hit.rsplit(":", 1)[0] not in homes]
        bad += [f"{home}: no line matches" for home in homes if held and home not in found]
        if count is not None and len(hits) != count:
            bad.append(f"{len(hits)} lines match, not {count}")
        return bad
    return query


def _defs(tree, prefix=""):
    """``(def node, dotted name)`` of every def under ``tree``: a method's
    name is ``Class.method``."""
    for node in ast.iter_child_nodes(tree):
        name = prefix + getattr(node, "name", "")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, name
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _defs(node, name + ".")
        else:
            yield from _defs(node, prefix)


@functools.lru_cache(maxsize=None)
def _calls(text, names):
    """``(line, names of the enclosing defs)`` of every call of ``names``;
    a method is named both ``method`` and ``Class.method``."""
    tree = _parse(text)
    defs = list(_defs(tree))
    return [(c.lineno, {n for d, dotted in defs if d.lineno <= c.lineno <= d.end_lineno
                        for n in (d.name, dotted)})
            for c in ast.walk(tree) if isinstance(c, ast.Call)
            and getattr(c.func, "attr", getattr(c.func, "id", None)) in names]


def calls_inside(path, names, homes, count=None):
    """Every call of ``names`` (a plain or attribute call) in ``path``
    sits inside one of the defs ``homes`` (a name or a tuple of them);
    ``count`` pins how many there are."""
    homes = {homes} if isinstance(homes, str) else set(homes)

    def query(files):
        calls = _calls(files[path], names)
        bad = [f"{path}:{line}" for line, defs in calls if not homes & defs]
        if count is not None and len(calls) != count:
            bad.append(f"{path}: {len(calls)} calls, not {count}")
        return bad
    return query


@functools.lru_cache(maxsize=None)
def _parse(text):
    """One syntax tree per source text, shared by every query (none
    modifies it)."""
    return ast.parse(text)


@functools.lru_cache(maxsize=None)
def _calls_in(text):
    """``(call node, innermost enclosing def)`` of every call in the
    source ``text``, in one walk; a decorator belongs to the scope
    around its def."""
    found, stack = [], [(_parse(text), None)]
    while stack:
        node, around = stack.pop()
        children = list(ast.iter_child_nodes(node))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack += [(d, around) for d in node.decorator_list]
            children = [c for c in children if all(c is not d for d in node.decorator_list)]
            around = node
        elif isinstance(node, ast.Call):
            found.append((node, around))
        stack += [(c, around) for c in children]
    return tuple(found)


def _tree_calls(files, scope):
    """``(path, line, call node, innermost enclosing def)`` of every call
    in the Python files under ``scope``."""
    for path, text in sorted(files.items()):
        if path.startswith(scope) and path.endswith(".py"):
            for call, around in _calls_in(text):
                yield path, call.lineno, call, around


def built_only_by(path, name, makers):
    """``name`` (a class of ``path``) is built only by its classmethods
    ``makers``, each of which calls ``cls(...)``: no ``name(...)`` call
    anywhere under ``src/``."""
    def query(files):
        bad = [f"{p}:{line}" for p, line, call, _ in _tree_calls(files, "src/")
               if getattr(call.func, "attr", getattr(call.func, "id", None)) == name]
        (cls,) = [n for n in ast.walk(_parse(files[path]))
                  if isinstance(n, ast.ClassDef) and n.name == name]
        for maker in makers:
            found = [d for d in cls.body if isinstance(d, ast.FunctionDef) and d.name == maker
                     and any(getattr(x, "id", None) == "classmethod" for x in d.decorator_list)
                     and any(isinstance(c, ast.Call) and getattr(c.func, "id", None) == "cls"
                             for c in ast.walk(d))]
            if not found:
                bad.append(f"{path}: {name}.{maker} builds no cls(...)")
        return bad
    return query


def _names_degrees(node, local):
    text = ast.unparse(node)
    return "degree" in text or (isinstance(node, ast.Name) and node.id in local)


def degree_maxima_only_in(path, home):
    """Every maximum taken of a degree array under ``src/`` — ``x.max()``,
    ``np.max(x)`` / ``np.amax(x)`` or ``max(x)`` of one argument, ``x``
    naming a degree or a local assigned from an expression that does —
    sits in ``def home`` of ``path``, which takes at least one."""
    def query(files):
        bad, held = [], 0
        for p, line, call, around in _tree_calls(files, "src/"):
            func, args = call.func, call.args
            if isinstance(func, ast.Attribute) and func.attr in ("max", "amax"):
                target = args[0] if ast.unparse(func.value) in ("np", "numpy") and args else func.value
            elif isinstance(func, ast.Name) and func.id == "max" and len(args) == 1:
                target = args[0]
            else:
                continue
            local = {t.id for n in ast.walk(around) if isinstance(n, ast.Assign)
                     and "degree" in ast.unparse(n.value)
                     for t in n.targets if isinstance(t, ast.Name)} if around else set()
            if not _names_degrees(target, local):
                continue
            if p == path and around is not None and around.name == home:
                held += 1
            else:
                bad.append(f"{p}:{line}")
        return bad + ([] if held else [f"{path}: no degree maximum in {home}"])
    return query


def trailing_sums_only_in(path, home):
    """Every sum over the trailing axis in ``path`` — ``x.sum(-1)``,
    ``x.sum(axis=-1)``, ``np.sum(x, -1)``, ``np.sum(x, axis=-1)`` — sits
    inside ``def home``."""
    def trailing(call):
        func = call.func
        if getattr(func, "attr", getattr(func, "id", None)) != "sum":
            return False
        method = not (isinstance(func, ast.Attribute) and ast.unparse(func.value) in ("np", "numpy"))
        axis = [k.value for k in call.keywords if k.arg == "axis"] or call.args[0 if method else 1:][:1]
        return any(ast.unparse(a) == "-1" for a in axis)

    def query(files):
        return [f"{path}:{call.lineno}" for call, around in _calls_in(files[path])
                if trailing(call) and getattr(around, "name", None) != home]
    return query


def no_import(module, scope, on_load=False):
    """No ``import module`` / ``from module`` (or a submodule, or
    ``from <parent> import <module's last part>``) in the Python files
    under ``scope``; with ``on_load``, none that runs when its file is
    imported: each sits in a ``def`` or under ``if TYPE_CHECKING:``."""
    name = re.compile(rf"{re.escape(module)}(\.|$)")

    def on_load_nodes(nodes):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING"):
                yield from on_load_nodes(node.orelse)
                continue
            yield node
            yield from on_load_nodes(ast.iter_child_nodes(node))

    def names(node):
        if isinstance(node, ast.Import):
            return [a.name for a in node.names]
        if isinstance(node, ast.ImportFrom) and not node.level:
            return [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        return []

    def query(files):
        return [f"{path}:{node.lineno}" for path, text in sorted(files.items())
                if path.startswith(scope) and path.endswith(".py")
                for node in (on_load_nodes(_parse(text).body) if on_load
                             else ast.walk(_parse(text)))
                if any(name.match(n) for n in names(node))]
    return query


def _row(id, query, path, text, at=""):
    return pytest.param(query, (path, text, at), id=id)


_WORDS = r"(?<!\w)({})(?!\w)".format

GUARDS = [
    # MultiEngine steps shards through bound steps: lookups, kernel
    # calls, bf16 rounding, storage simulation and ledgers are Engine's.
    _row("one-interpreter/multi-has-no-dispatch",
         forbidden(r"(apply|scatter|gather|param_grad)_kernel\(|resolve_kernel|\.kernel\(|"
                   r"bf16_round|simulate_storage|MemoryLedger\(|aggregate\(|u_dot_v|"
                   r"adjacency\(", MULTI),
         MULTI, "from repro.exec.kernels import resolve_kernel\n"),
    # Destination-row halos are made by MultiEngine, priced by
    # plan_comm_records, checked by the halo checker, named nowhere else.
    _row("one-comm-schedule/halo-dst-named-in-three-places",
         only_in(r'"halo_dst"', (S + "analysis/halo.py", S + "exec/analytic.py", MULTI)),
         ENGINE, 'FETCH = "halo_dst"\n'),
    # Kernels are resolved once, in _bind_kernel, and called at one site, _dispatch.
    _row("one-dispatch/lookups-in-bind-kernel",
         calls_inside(ENGINE, ("resolve_kernel", "aggregate"), "_bind_kernel"),
         ENGINE, '    def _relu(self, ins):\n        return resolve_kernel("apply", "relu")\n\n',
         at="    def _dispatch(\n"),
    _row("one-dispatch/kernel-called-once-in-dispatch",
         calls_inside(ENGINE, ("kernel",), "_dispatch", count=1),
         ENGINE, "        step.kernel(graph, ins, params, None)\n",
         at="        value = step.kernel("),
    _row("one-dispatch/no-table-calls-in-engine-plan-csr",
         forbidden(r"(apply|scatter|gather|param_grad)_kernel\(", ENGINE, S + "exec/plan.py", CSR),
         S + "exec/plan.py", 'value = apply_kernel("relu", ins, ())\n'),
    # One (kind, fn) -> kernel table: nothing selects an implementation.
    _row("one-kernel-table/no-backend-axis",
         forbidden(r"declare_backend|available_backends|canonical_backend|BackendKernels|"
                   r"get_backend|backend=", S),
         KERNELS, "def get_backend(name):\n    return BACKENDS[name]\n"),
    # ledger_walk is the one residency loop; _Compiled.pinned the one pinned set.
    _row("one-ledger+one-price/resident-pop-only-in-memory",
         only_in(r"resident\.pop\(", (S + "exec/memory.py",)),
         S + "exec/analytic.py", "size = resident.pop(root)\n"),
    _row("one-ledger/pinned-set-written-once",
         only_in(r"forward\.inputs\) \+ list\(", (S + "frameworks/strategy.py",), count=1),
         S + "frameworks/strategy.py", "pinned = list(self.forward.inputs) + list(params)\n"),
    # cost_form.py runs the per-node formulas once per plan; no record walk in src/.
    _row("one-price/no-kernel-record", forbidden(r"def kernel_record", "src/"),
         S + "exec/analytic.py", "def kernel_record(node, specs):\n    pass\n"),
    _row("one-price/read-formula-once",
         only_in(r"node\.read_bytes\(", (S + "exec/cost_form.py",), count=1),
         S + "exec/analytic.py", "read = node.read_bytes(name, specs, sizes)\n"),
    _row("one-price/write-formula-once",
         only_in(r"node\.write_bytes\(", (S + "exec/cost_form.py",), count=1),
         S + "exec/cost_form.py", "written = node.write_bytes(o, specs, sizes)\n"),
    # Pure stages run through StageMemo's methods, never bare.
    _row("one-compile-per-stage/bare-calls-only-in-stage-memo",
         only_in(r"^(?!\s*def ).*(?<![.\w])(differentiate|reorganize|partition_kernels)\(",
                 (S + "opt/stages.py",)),
         SESSION, "module = reorganize(module)\n"),
    # Streams bisect one SeedCDF; features() reads the planted scores.
    _row("constants-once/no-per-draw-sampler",
         forbidden(r"rng\.choice\(", S + "serve/request.py", S + "dyn/workload.py"),
         S + "dyn/workload.py", "v = rng.choice(n, p=weights)\n"),
    _row("constants-once/no-per-call-canonical-matrix", forbidden(r"_canonical_features", "src/"),
         S + "graph/datasets.py", "def _canonical_features(n, f):\n    pass\n"),
    # Every sum is the CsrOperator product: scipy's compiled CSR loop,
    # called at one line of graph/csr.py.
    _row("one-segment-sum/no-strided-reduceat", forbidden(r"add\.reduceat", S),
         KERNELS, "out = np.add.reduceat(x, starts)\n"),
    _row("one-segment-sum+one-place-builds-operators/sparsetools-only-in-csr",
         only_in(r"_sparsetools", (CSR,)),
         KERNELS, "from scipy.sparse import _sparsetools\n"),
    _row("one-segment-sum+one-place-builds-operators/one-sparsetools-call",
         only_in(r"_sparsetools\.\w+\(", (CSR,), count=1),
         CSR, "    _sparsetools.csr_matvec(m, n, p, i, d, x, y)\n", at="def adjacency_operator("),
    # graph/csr.py sorts in _group_edges and, for a graph made from its
    # in-edges, in InEdges.order (its edge list's order); groupings are
    # handed over through Graph.grouped, never _cache; dedup is a scatter.
    _row("one-grouping+one-ring/only-group-edges-sorts",
         calls_inside(CSR, ("argsort", "lexsort", "sort"), ("_group_edges", "InEdges.order")),
         CSR, "def _order(keys):\n    return np.argsort(keys)\n\n\n", at="def _group_edges("),
    _row("one-grouping/group-edges-called-only-in-csr", only_in(r"_group_edges\(", (CSR,)),
         SAMPLING, "order = _group_edges(src, dst, n)\n"),
    _row("one-grouping/no-dict-fromkeys-dedup",
         forbidden(r"dict\.fromkeys\(", S + "graph/", S + "dyn/"),
         S + "dyn/delta.py", "ids = list(dict.fromkeys(ids))\n"),
    _row("one-grouping/no-cache-pokes",
         forbidden(r"_cache\[", SAMPLING, S + "dyn/delta.py", S + "serve/batcher.py"),
         S + "serve/batcher.py", "graph._cache[key] = grouping\n"),
    # Hop distances come from _khop; the engine cuts ring blocks with
    # Graph.row_block, at one site per orientation, and builds no graph.
    _row("one-ring/no-bfs-in-exec-or-serve",
         forbidden(r"_khop\(|khop_neighborhood\(|in_neighbours\(|_mark_in_neighbours\(",
                   S + "exec/", S + "serve/"),
         S + "serve/server.py", "field = _khop(graph, seeds, hops)\n"),
    _row("one-ring/no-ring-graphs",
         forbidden(r"ring_graph\(|_spread\(|row_count_dependent", "src/"),
         RINGS, "block = ring_graph(graph, n)\n"),
    _row("one-ring/one-grouped-call-in-sampling",
         only_in(r"Graph\.grouped\(", (SAMPLING,), (SAMPLING,), count=1),
         SAMPLING, "    twin = Graph.grouped(graph)\n", at="    sub = Graph.grouped("),
    _row("one-ring/engine-builds-no-graph",
         forbidden(r"Graph\(|Graph\.grouped\(|_inherit\(|_cut_block\(|_cut_within\(",
                   ENGINE, RINGS),
         RINGS, "block = _cut_block(graph, 0, n)\n"),
    _row("one-ring/one-in-ring-cut",
         only_in(re.escape('row_block("in", 0, '), (ENGINE,), (ENGINE,), count=1),
         ENGINE, 'block = graph.row_block("in", 0, n)\n'),
    _row("one-ring/one-out-ring-cut",
         only_in(re.escape('row_block("out", 0, '), (ENGINE,), (ENGINE,), count=1),
         ENGINE, 'block = graph.row_block("out", 0, n, within=d)\n'),
    _row("one-ring/no-per-node-ring-step", forbidden(r"_Rings\.step|def _step\(", "src/"),
         RINGS, "def _step(run, node):\n    pass\n"),
    # graph/csr.py's adjacency_operator is the one constructor call, of
    # the repro-owned operator: no scipy sparse array is built.
    _row("one-place-builds-operators/no-csr-array", forbidden(r"csr_array\(", "src/"),
         KERNELS, "op = sp.csr_array((w, idx, ptr))\n"),
    _row("one-place-builds-operators/csr-operator-built-once",
         only_in(r"CsrOperator\(", (CSR,), count=1),
         KERNELS, "op = CsrOperator(ptr, idx, w, shape)\n"),
    # exec/kernels.py weights an operator in one place, aggregate.
    _row("one-product-per-aggregation/one-weighted-operator",
         calls_inside(KERNELS, ("adjacency_operator",), "aggregate", count=1),
         KERNELS, "def _weighted(op, w):\n    return adjacency_operator(op, w)\n\n\n",
         at="def aggregate("),
    # Every per-edge and per-head dot sums its products in one order,
    # the trailing-axis contraction's.
    _row("one-trailing-contraction/no-trailing-sum-outside-the-contraction",
         trailing_sums_only_in(KERNELS, "contract_trailing"),
         KERNELS, "    return (x * a).sum(axis=-1)\n",
         at="    return np.einsum(\n        \"vhf,hf->vh\""),
    # The feature cache resolves a gather with array operations.
    _row("one-cache-table/no-row-by-row-dict",
         forbidden(r"OrderedDict|move_to_end|for .* in .*vertices", S + "serve/cache.py"),
         S + "serve/cache.py", "from collections import OrderedDict\n"),
    # A kernel writes its value into its slab; only the engine pools.
    _row("one-way-into-a-slab/no-adoption-copy", forbidden(r"\.adopt\(|def _?adopt\(", S),
         ENGINE, "slab = pool.adopt(value)\n"),
    _row("one-way-into-a-slab/only-engine-builds-a-pool", only_in(r"ArenaPool\(", (ENGINE,)),
         S + "train/loop.py", "pool = ArenaPool(plan)\n"),
    # scipy loads where a run first uses it: scipy.spatial in knn_graph;
    # importing repro loads none.  No file imports the scipy.sparse
    # package: the product loads its compiled loop by file.
    _row("load-only-what-runs/no-scipy-import-on-load", no_import("scipy", "src/", on_load=True),
         S + "graph/generators.py", "from scipy.spatial import cKDTree\n"),
    _row("load-only-what-runs/no-scipy-sparse-import", no_import("scipy.sparse", "src/"),
         CSR, "        from scipy.sparse import _sparsetools\n",
         at="        _sparsetools = _load_sparsetools()\n"),
    # MultiEngine's hazard waves are the one overlap left.
    _row("no-modelled-overlap/no-overlap-schedules",
         forbidden(r"build_overlap_schedule|OverlapSchedule|overlap_schedules|RP105|"
                   r"overlap_diagnostics|RP102", "src/", "examples/", "benchmarks/"),
         "examples/quickstart.py", "from repro.analysis import overlap_diagnostics\n"),
    _row("no-modelled-overlap/overlap-knob-only-on-multi", only_in(r"overlap=", (MULTI,)),
         SESSION, 'engine = MultiEngine(graph, 4, overlap="threads")\n'),
    # Kernels run in the fusion order and every counter object carries
    # one peak, the ledger's: the memory schedule did not lower the
    # host's peak RSS, and the arena-priced peak equalled the ledger.
    _row("no-memory-schedule/no-reordering-pass-or-second-peak",
         forbidden(r"schedule_kernels|with_memory_schedule|schedule_memory|ScheduleMemoryPass|"
                   r"SchedulingRaceError|device_peak_bytes", "src/", "examples/", "benchmarks/",
                   "README.md"),
         S + "gpu/cost_model.py", "        peak = counters.device_peak_bytes\n"),
    # A configuration is one RunConfig, every row a SweepRow session.py
    # builds; run_sweep renames no Session.serve keyword.
    _row("one-configuration-record/no-run-result",
         forbidden(r"RunResult|def measure\(", S + "bench/"),
         FIGURES, "def measure(session):\n    pass\n"),
    _row("one-configuration-record/sweep-rows-built-in-session",
         built_only_by(SESSION, "SweepRow", ("from_report", "from_serve")),
         FIGURES, 'row = SweepRow(model="gat")\n'),
    _row("one-configuration-record/no-axis-attributes",
         forbidden(r"self\._(model|dataset|strategy|gpu|cluster|schedule|precision|minibatch|"
                   r"feature_dim|partitioner|stats|workload)\b\s*(:[^=]*)?=([^=]|$)", SESSION),
         SESSION, "self._model = model\n"),
    _row("one-configuration-record/no-renamed-serve-keywords",
         forbidden(_WORDS("serve_(requests|seeds|slo_s|cache_rows|zipf_alpha|scheduler|seed|"
                          "compact_every)"), "src/", "examples/", "README.md"),
         "README.md", "run_sweep(..., serve_qps=[100], serve_requests=200)\n"),
    # One home per setting: no knob nothing sets, no restated keyword.
    _row("one-home-per-setting/no-knob-nothing-sets",
         forbidden(r"PartitionSpec|interconnect_latency_us|update_edge_frac|_per_update|"
                   r"minibatch_hops|minibatch_seed|param_seed", "src/", "examples/", "README.md"),
         S + "gpu/cluster.py", "    interconnect_latency_us: float = 5.0\n"),
    _row("one-home-per-setting/figures-take-no-arguments",
         forbidden(r"^def fig_(?!backend_calibration\()[a-z0-9_]+\((?!\) -> )", FIGURES),
         FIGURES, "def fig_scaling(gpus=(1, 2, 4)) -> FigureResult:\n    pass\n"),
    _row("one-home-per-setting/built-in-passes-take-no-overrides",
         forbidden(r"def __init__", S + "opt/pipeline.py", after=r"^# Built-in passes"),
         S + "opt/pipeline.py", "    def __init__(self, mode=None):\n        self.mode = mode\n\n",
         at='    name = "fusion"\n'),
    _row("one-home-per-setting/no-memory-plans", forbidden(r"memory_plans", "src/"),
         S + "train/minibatch.py", "memory_plans = {}\n"),
    _row("one-home-per-setting/no-hops-parameter",
         forbidden(r"\bhops\s*:|\bhops\s*=\s*None", SESSION, S + "train/minibatch.py",
                   S + "serve/server.py"),
         S + "serve/server.py", "    hops: Optional[int] = None\n"),
    _row("one-home-per-setting/no-recorded-events", forbidden(r'"events"', MULTI),
         MULTI, 'trace["events"] = []\n'),
    _row("one-home-per-setting/default-arrivals-and-batching",
         forbidden(_WORDS("arrival|burst|max_wait_s"), SESSION),
         SESSION, "    max_wait_s: float = 0.002\n"),
    # GraphStats takes degree maxima once; partitions cost O(|V|), no sort.
    _row("degree-facts-once/maxima-read-only-in-stats",
         degree_maxima_only_in(S + "graph/stats.py", "__post_init__"),
         S + "gpu/cost_model.py", "peak = stats.in_degrees.max()\n"),
    _row("degree-facts-once/partitions-without-sorts",
         forbidden(r"np\.unique\(|argsort\(|np\.isin\(", S + "graph/partition.py"),
         S + "graph/partition.py", "ghosts = np.unique(src)\n"),
    # A public name nothing calls is cut, and stays out.
    _row("no-caller-no-name/cut-names-stay-cut", forbidden(_WORDS(
             r"LRSchedule|StepLR|CosineLR|WarmupLR|ScheduledOptimizer|relabel|"
             r"degree_sorted_relabel|overlap_diagnostics|plan_memory_multi|in_neighbours|"
             r"expected_khop_field_size|format_module|update_workload|graph\.reorder|"
             r"train\.schedule"), "src/", "examples/", "benchmarks/", "README.md"),
         "examples/quickstart.py", "from repro.train.schedule import StepLR\n"),
    # python -O strips asserts: the bench CLI builds and saves only.
    _row("bench-validates-nothing-with-assert/no-assert-in-bench",
         forbidden(r"^\s*assert ", S + "bench/"),
         FIGURES, '    assert rows, "empty table"\n'),
]


@pytest.mark.parametrize("query, seed", GUARDS)
def test_guard_holds(query, seed, sources):
    assert query(sources) == []


@pytest.mark.parametrize("query, seed", GUARDS)
def test_guard_catches_its_seed(query, seed, sources):
    path, text, at = seed
    assert at in sources[path]
    assert query({**sources, path: sources[path].replace(at, text + at, 1)})
