"""Rules that every module of the package's source must keep."""

import ast
import importlib.util
import json
import re
import sys
from pathlib import Path

from streamstart.annotations import STREAM_MAGIC

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
    assert names == {"kernels._OP_COUNTER"}


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


def test_kernels_forward_products_run_through_matmul():
    # matmul counts the MACs of every product it runs; outside it only the VJPs, which no counter
    # reconciles yet, multiply matrices, so no forward product escapes the count
    tree = ast.parse((SRC / "kernels.py").read_text(encoding="utf-8"))
    products = {"np.matmul", "np.einsum", "np.tensordot"}  # np.dot: test_np_dot_only_in_the_product_helper
    allowed, outside = [], []
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        lines = [node.lineno for node in ast.walk(top)
                 if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
                 or isinstance(node, ast.Call) and ast.unparse(node.func) in products]
        bucket = allowed if name == "matmul" or name.endswith("_vjp") else outside
        bucket += [f"{name}:{line}" for line in lines]
    assert any(hit.startswith("matmul:") for hit in allowed) and outside == []


def test_erf_only_in_gelu():
    # kernels.gelu takes scipy's erf of |x| and copies the sign back; another call would take erf's sign branch
    calls = {name: [node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "erf"]
             for name, tree in _trees()}
    tree = ast.parse((SRC / "kernels.py").read_text(encoding="utf-8"))
    (gelu,) = [func for func in tree.body if isinstance(func, ast.FunctionDef) and func.name == "gelu"]
    inside = range(gelu.lineno, gelu.end_lineno + 1)
    assert any(line in inside for line in calls["kernels.py"])
    outside = [f"{name}:{line}" for name, lines in calls.items() for line in lines
               if name != "kernels.py" or line not in inside]
    assert outside == []


def test_only_annotations_knows_the_stream_header():
    # annotations.py frames a stream file (magic, version, JSON header) and reads it back: no other
    # module names its STREAM_ constants, holds its magic, or names a three-file layout's sidecar
    magic = STREAM_MAGIC.decode("latin-1")
    found = []
    for name, tree in _trees():
        if name == "annotations.py":
            continue
        for node in ast.walk(tree):
            names = [value for field in ("id", "arg", "attr", "name")
                     if isinstance(value := getattr(node, field, None), str)]
            text = node.value if isinstance(node, ast.Constant) else None
            if isinstance(text, bytes):
                text = text.decode("latin-1")
            if (any(value.startswith("STREAM_") or "sidecar" in value.lower() for value in names)
                    or isinstance(text, str) and (magic in text or ".f32.json" in text or ".query.f32" in text)):
                found.append(f"{name}:{node.lineno}: {names or text}")
    assert found == []


def test_only_framing_decodes_a_frame_or_header():
    # one container for every binary file: framing.py alone packs or unpacks a frame's integers,
    # decodes a JSON header and checks a version; each format checks only its own header and payload
    found = []
    for name, tree in _trees():
        if name == "framing.py":
            continue
        for node in ast.walk(tree):
            call = ast.unparse(node.func) if isinstance(node, ast.Call) else ""
            if (call == "json.loads" or call.split(".")[-1] in ("from_bytes", "to_bytes")
                    or isinstance(node, ast.Compare) and "VERSION" in ast.unparse(node)):
                found.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def _callers() -> dict[str, set[str]]:
    """Each called name, the last part of a dotted call, mapped to the ``module.function``s that call it."""
    callers: dict[str, set[str]] = {}
    for name, tree in _trees():
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    if isinstance(node, ast.Call):
                        callee = ast.unparse(node.func).split(".")[-1]
                        callers.setdefault(callee, set()).add(f"{name[:-3]}.{func.name}")
    return callers


def test_sr_and_smd_are_written_once():
    # report.json and the sweep score through the public per-query SR@k and SMD@k, which the
    # property and oracle suites draw their cases through: no second, array copy of either
    callers = _callers()
    assert callers["is_hit"] == {"metrics.streaming_recall_at_k"}
    assert "metrics._report" in callers["streaming_recall_at_k"] & callers["smd_at_k"]
    assert "metrics.sweep_thresholds" in callers["streaming_recall_at_k"]
    tree = ast.parse((SRC / "metrics.py").read_text(encoding="utf-8"))
    used = {ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert used & {"np.logical_or.accumulate", "np.minimum.accumulate"} == set()


def test_evaluations_read_series_only_through_pair():
    # one pairing rule: a row that no annotation pairs plays no part in an evaluation. Each
    # evaluation hands its series, a table or a list, to _pair alone; only _pair looks a row up
    # by its (video_uid, query_id) and builds the _Queries that every pass reads rows through
    tree = ast.parse((SRC / "metrics.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("evaluate_dataset", "sweep_thresholds"):
        through_pair = {id(node.args[0]) for node in ast.walk(functions[name]) if isinstance(node, ast.Call)
                        and ast.unparse(node.func) == "_pair" and node.args}
        reads = [node.lineno for node in ast.walk(functions[name])
                 if isinstance(node, ast.Name) and node.id == "series" and id(node) not in through_pair]
        assert len(through_pair) == 1 and reads == [], (name, reads)

    def users(test) -> set[str]:
        return {name for name, func in functions.items() if any(test(node) for node in ast.walk(func))}

    assert users(lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == "_Queries") == {"_pair"}
    assert users(lambda node: isinstance(node, ast.Attribute) and node.attr == "index") == {"_pair"}


def test_one_wording_per_score_rule():
    # ScoreTable raises each rule's library error itself: its constructor takes no callable, such as
    # a factory of another wording. The loader alone words a store's message, putting
    # "score store <path>: " before the table's own
    tree = ast.parse((SRC / "metrics.py").read_text(encoding="utf-8"))
    table = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "ScoreTable")
    init = next(node for node in table.body if isinstance(node, ast.FunctionDef) and node.name == "__post_init__")
    fields = [ast.unparse(node.annotation) for node in table.body if isinstance(node, ast.AnnAssign)]
    assert [arg.arg for arg in init.args.args] == ["self"]
    assert not any("Callable" in text or "InitVar" in text for text in fields), fields
    trees = list(_trees())
    docstrings = {id(node.body[0].value) for _, tree in trees for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node)}
    wording = {f"{name[:-3]}.{func.name}" for name, tree in trees for func in tree.body
               if isinstance(func, (ast.FunctionDef, ast.ClassDef)) for node in ast.walk(func)
               if isinstance(node, ast.Constant) and isinstance(node.value, str) and "score store" in node.value
               and id(node) not in docstrings}
    assert wording == {"metrics.load_score_series_dir"}


def test_only_the_detector_makes_score_series():
    # scores live in a ScoreTable; a ScoreSeries is the one series that score_frames and
    # infer_streaming return, so metrics, the store and the CLI build none
    makers = {f"{name[:-3]}.{func.name}" for name, tree in _trees() for func in ast.walk(tree)
              if isinstance(func, ast.FunctionDef) for node in ast.walk(func)
              if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "ScoreSeries"}
    assert makers == {"detector.score_frames", "detector.infer_streaming"}


# public top-level names that no other code in src reaches, each kept for its reader outside src
KEPT_UNREACHED = {
    "kernels.set_op_counter": "perfbench installs its MAC counter through it",
    "kernels.retention_recurrent": "criterion 3's recurrent side, and perfbench's retention_recurrent_us",
    "metrics.extract_predictions": "demo 01 and perfbench; ROADMAP R25 deletes it",
    "detector.score_frames": "perfbench's live check",
    "detector.infer_streaming": "the streaming reference, traced by perfbench",
}


def _reached() -> set[str]:
    """Each ``module.name`` that code in src refers to outside the name's own definition: as a
    bare name in its module, or elsewhere as ``from .module import name`` or ``module.name``."""
    reached = set()
    for name, tree in _trees():
        module = name[:-3]
        for top in tree.body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id != own:
                    reached.add(f"{module}.{node.id}")
                elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in MODULES:
                    reached |= {f"{node.module}.{a.name}" for a in node.names}
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in MODULES:
                    reached.add(f"{node.value.id}.{node.attr}")
    return reached


def test_every_public_name_is_reached_or_kept_for_a_reason():
    # a public function or class that nothing in src (the CLI included) calls is dead code,
    # unless a reader outside src needs it by name
    public = {f"{name[:-3]}.{node.name}" for name, tree in _trees() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}
    assert public - _reached() == set(KEPT_UNREACHED)


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


def test_train_builds_its_model_once_before_the_step_loop():
    # Adam updates one vector in place that the trained model's arrays view, so no step rebuilds the model
    tree = ast.parse((SRC / "detector.py").read_text(encoding="utf-8"))
    train = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "train")

    def builds(node) -> int:
        return sum(isinstance(call, ast.Call) and ast.unparse(call.func) == "with_arrays" for call in ast.walk(node))

    loops = [node for node in ast.walk(train) if isinstance(node, (ast.For, ast.While))]
    assert loops and [builds(loop) for loop in loops] == [0] * len(loops)
    assert builds(train) == 1


def test_package_init_holds_only_its_docstring_and_version():
    # each name has one import path, its module's: `from streamstart import metrics`
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert ast.get_docstring(tree)
    assert [ast.unparse(node).split(" = ")[0] for node in tree.body[1:]] == ["__version__"]


def test_one_wording_per_number_rule():
    # errors.check_count and errors.check_real word the count and real rules once, so that every
    # number of every config obeys one rule in one wording. Only the score table's row rules,
    # metrics._check_scores, keep words of their own
    rules = ("must be an integer", "must be >=", "must be finite")
    found = []
    for name, tree in _trees():
        if name == "errors.py":
            continue
        own = {id(node) for func in tree.body if name == "metrics.py" and getattr(func, "name", "") == "_check_scores"
               for node in ast.walk(func)}
        found += [f"{name}:{node.lineno}: {node.value!r}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in own
                  and any(rule in node.value for rule in rules)]
    assert found == []


def test_commands_write_only_through_the_run():
    # cli._Run stages each command's --out beside it, writes the manifest last and renames the
    # directory in whole; a command body that made a directory or wrote a file would bypass it
    text = (SRC / "cli.py").read_text(encoding="utf-8")
    commands = [f for f in ast.parse(text).body if isinstance(f, ast.FunctionDef) and f.name.startswith("cmd_")]
    writes = re.compile(r"\b(mkdir|write_text|write_bytes)\b|\b(_HashingReader|write_manifest)\(")
    found = [f"{f.name}: {m.group()}" for f in commands for m in writes.finditer(ast.get_source_segment(text, f))]
    assert len(commands) == 6 and found == []
