"""The benchmark (`perfbench/workloads.py` and `perfbench/run.py`) calls
the package by name and keyword, and restores `serve_m7`'s model from a
checkpoint that carries no memory; renaming a function, a parameter or a
config field it uses, or changing what such a checkpoint holds, must fail
here rather than break every benchmark run."""

import ast
import importlib
import importlib.util
import inspect
import types
import json
import struct
import sys
from pathlib import Path

import pytest

from knnmem import trainer
from knnmem.corpus import build_vocab
from knnmem.datagen import TopicalSpec, make_topical_corpus
from knnmem.encoder import EncoderConfig
from knnmem.memory import KnnTextModel, ModelConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"


def package_reads(path: Path) -> tuple[dict[str, str], set[tuple[str, str]]]:
    """The `knnmem` modules that a file imports by `from knnmem import m`,
    anywhere in it, by the name it binds, and each `m.name` it reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "knnmem"
               for alias in node.names}
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    return modules, used


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("workloads_under_test", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    path, loaded = list(sys.path), set(sys.modules)
    # Leave no bytecode cache next to the benchmark's files, and none of
    # their modules behind: workloads.py imports `trace_spans` from its
    # folder, and its dataclasses look their module up while it loads.
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.path.insert(0, str(PERFBENCH))
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        sys.path[:] = path
        for name in {spec.name, "trace_spans"} - loaded:
            sys.modules.pop(name, None)
    return module


def test_every_package_name_resolves(workloads):
    """Each `module.name` that the workloads read from a `knnmem` module
    they import exists; the `from knnmem... import` names resolved on load."""
    names, used = package_reads(WORKLOADS)
    assert set(names) == {"corpus", "retrieval", "trainer"}
    modules = {name: getattr(workloads, name) for name in names}
    assert ("trainer", "save_checkpoint") in used and ("retrieval", "load_index") in used
    assert [f"{m}.{a}" for m, a in sorted(used) if not hasattr(modules[m], a)] == []


def test_run_py_package_names_resolve():
    """`run.py` imports `knnmem` modules inside its functions, after putting
    the checkout's `src` on the path; each name it reads from them exists.
    Its `environment()` reports `autodiff.get_default_dtype()` as the float
    width of every workload."""
    names, used = package_reads(PERFBENCH / "run.py")
    assert names == {"autodiff": "autodiff"}
    assert ("autodiff", "get_default_dtype") in used
    modules = {name: importlib.import_module(f"knnmem.{module}") for name, module in names.items()}
    assert [f"{m}.{a}" for m, a in sorted(used) if not hasattr(modules[m], a)] == []


def package_calls(path: Path) -> list[tuple[ast.Call, object]]:
    """Each call in a file to a `knnmem` callable, with that callable: one
    named through a `from knnmem import m` or `from knnmem.m import name`
    anywhere in the file, and any attribute of it (`Class.method`)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "knnmem":
            for alias in node.names:
                if node.module == "knnmem":
                    target = importlib.import_module(f"knnmem.{alias.name}")
                else:
                    target = getattr(importlib.import_module(node.module), alias.name)
                bound[alias.asname or alias.name] = target

    def resolve(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute):
            return getattr(resolve(node.value), node.attr, None)
        return None

    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            target = resolve(node.func)
            if (callable(target) and not isinstance(target, types.ModuleType)
                    and getattr(target, "__module__", "").startswith("knnmem")):
                calls.append((node, target))
    return calls


def unbound_calls(path: Path) -> tuple[list[str], list[str]]:
    """The package calls of a file, as source, and those whose positional
    count or keyword names do not bind to the callable's signature."""
    checked, failed = [], []
    for call, target in package_calls(path):
        source = ast.unparse(call.func)
        checked.append(source)
        positional = [None] * sum(not isinstance(a, ast.Starred) for a in call.args)
        keywords = {k.arg: None for k in call.keywords if k.arg is not None}
        try:
            inspect.signature(target).bind_partial(*positional, **keywords)
        except TypeError as exc:
            failed.append(f"{path.name}:{call.lineno} {source}: {exc}")
    return checked, failed


@pytest.mark.parametrize("name", ["workloads.py", "run.py"])
def test_every_package_call_binds(name):
    """Each call that the benchmark makes to the package passes arguments
    that its signature takes: a renamed or deleted parameter, or a
    ``TrainConfig`` field, fails here."""
    checked, failed = unbound_calls(PERFBENCH / name)
    want = {"workloads.py": {"trainer.run_pipeline", "trainer.TrainConfig", "EncoderConfig",
                             "KnnTextModel.create", "trainer.evaluate", "retrieval.search_knn"},
            "run.py": {"autodiff.get_default_dtype"}}[name]
    assert want <= set(checked)
    assert failed == []


def test_serve_m7_restore_chain_on_a_checkpoint_without_memory(tmp_path):
    docs, labels = make_topical_corpus(6, TopicalSpec(seed=3))
    vocab = build_vocab(docs)
    config = ModelConfig(encoder=EncoderConfig(word_dim=6, char_dim=3, char_lstm_dim=4, hidden=5),
                         preset="M7", perspectives=2, n_classes=labels.c)
    model = KnnTextModel.create(config, vocab, seed=1)
    path = tmp_path / "model.ckpt"
    trainer.save_checkpoint(path, trainer.make_checkpoint(model, vocab, epoch=0, dev_accuracy=0.0))
    restored = trainer.model_from_checkpoint(trainer.load_checkpoint(path), vocab,
                                             expected_classes=labels.c)
    assert restored.config == model.config
    blob = path.read_bytes()
    (size,) = struct.unpack("<Q", blob[8:16])
    assert "memory" not in json.loads(blob[16:16 + size])
    assert trainer.load_checkpoint(path).memory is None
