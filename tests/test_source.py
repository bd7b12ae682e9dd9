"""Rules that every module of the package's source must keep."""

import ast
import importlib.util
import json
import re
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "streamstart"
MODULES = {path.stem for path in SRC.glob("*.py")} - {"__init__"}


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_environment_reads():
    # behaviour is chosen by arguments and CLI flags, never by the environment
    reads = [
        f"{path.name}:{i}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(r"\benviron\b|\bgetenv\b", line)
    ]
    assert reads == []


def test_no_module_reaches_another_modules_private_names():
    reaches = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in MODULES:
                reaches += [f"{name}:{node.lineno}: {node.module}.{a.name}"
                            for a in node.names if _private(a.name)]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in MODULES and _private(node.attr)):
                reaches.append(f"{name}:{node.lineno}: {node.value.id}.{node.attr}")
    assert reaches == []


def _reads_tape(node) -> bool:
    """A string-keyed subscript of, or a dict-method call on, something named like a tape."""
    if isinstance(node, ast.Subscript):
        key = node.slice
        string_key = isinstance(key, ast.Constant) and isinstance(key.value, str)
        return string_key and "tape" in ast.unparse(node.value)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr in ("get", "pop", "items", "values") and "tape" in ast.unparse(node.func.value)
    return False


def test_only_kernels_reads_tape_keys():
    # one module holds each forward, the tape it writes and the VJP that reads it
    reads = [f"{name}:{node.lineno}" for name, tree in _trees() if name != "kernels.py"
             for node in ast.walk(tree) if _reads_tape(node)]
    assert reads == []


def test_only_the_known_module_globals():
    # module-level mutable state is on its way out; no module may add more
    names = {f"{name[:-3]}.{g}" for name, tree in _trees()
             for node in ast.walk(tree) if isinstance(node, ast.Global) for g in node.names}
    assert names == {"kernels._OP_COUNTER", "detector.ZERO_NORM_COUNT"}


def test_kernels_does_no_file_io():
    # kernels.py computes; the checkpoint format and every file read or write live elsewhere
    tree = ast.parse((SRC / "kernels.py").read_text(encoding="utf-8"))
    imported = {a.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module}
    opens = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "open"]
    assert imported & {"io", "json", "struct", "pathlib"} == set() and opens == []



def test_np_dot_only_in_the_product_helper():
    # kernels.matmul picks np.dot where it equals @; elsewhere np.dot on a stack is another product
    dots = {name: [node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and ast.unparse(node) in ("np.dot", "numpy.dot")]
            for name, tree in _trees()}
    tree = ast.parse((SRC / "kernels.py").read_text(encoding="utf-8"))
    (helper,) = [func for func in tree.body if isinstance(func, ast.FunctionDef) and func.name == "matmul"]
    inside = range(helper.lineno, helper.end_lineno + 1)
    assert any(line in inside for line in dots["kernels.py"])
    outside = [f"{name}:{line}" for name, lines in dots.items() for line in lines
               if name != "kernels.py" or line not in inside]
    assert outside == []


def test_every_traced_metric_has_its_function():
    # the benchmark's tracer finds each per-layer metric's function by name;
    # a renamed or deleted one silently drops its metric from the traced run
    root = Path(__file__).resolve().parents[1]
    path = root / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # read the benchmark's files, write nothing next to them
    try:
        spec.loader.exec_module(tracing)
    finally:
        sys.dont_write_bytecode = dont_write
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    nothing_measured = {"kind_configs": {}, "busy_s": 0.0, "overhead_pct": 0.0, "state_bytes": {}}
    metrics, record = tracing.layer_metrics(tracer, 0, nothing_measured)
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    assert record["absent"] == []
    assert set(metrics) == {m["name"] for m in declared}


def test_kernels_compare_state_with_none_only_to_fill_it():
    # one stateful mode: a missing state becomes a fresh one, and no branch runs another path
    tree = ast.parse((SRC / "kernels.py").read_text(encoding="utf-8"))
    tests = {id(node.test): node for node in ast.walk(tree) if isinstance(node, ast.If)}
    compares = [node for node in ast.walk(tree) if isinstance(node, ast.Compare)
                and re.fullmatch(r"state is (not )?None", ast.unparse(node))]
    assert compares
    for node in compares:
        branch = tests.get(id(node))
        assert branch is not None and ast.unparse(node) == "state is None", ast.unparse(node)
        assert [ast.unparse(b).split("(")[0] for b in branch.body] == ["state = fresh_state"]


def test_detector_chunk_loop_is_score_streams_alone():
    # batch scoring of one stream or many walks CHUNK-frame chunks in one place
    tree = ast.parse((SRC / "detector.py").read_text(encoding="utf-8"))
    loops = [func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
             for node in ast.walk(func) if isinstance(node, ast.For) and "CHUNK" in ast.unparse(node.iter)]
    assert loops == ["score_streams"]
