"""The CLI builds every pipeline from one PipelineSpec.

* Parent ≡ worker: for ``evaluate`` and ``serve`` on both sources, every
  pipeline-shaping flag set to a non-default value reaches the spec, the
  spec survives pickling unchanged, and a worker building from the
  unpickled spec — in this process or in a freshly spawned one — gets
  the parent's exact config.  The flag list is derived from the parser
  actions of the shared flag helpers, plus ``--variant``, so a flag
  added later without a spec field fails here.
* ``evaluate`` reports the memos that did the work on every run: the
  same accuracy lines and memo lookups as a serial run, with hits > 0,
  on the thread and process executors and on ``--snapshot``.
"""

from __future__ import annotations

import argparse
import multiprocessing
import pickle
import re
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import cli
from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def kb_dir(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("cli-spec") / "kb")
    assert (
        main(
            ["generate-kb", "--out", directory, "--seed", "7",
             "--clusters", "2"]
        )
        == 0
    )
    return directory


@pytest.fixture(scope="module")
def snap_path(kb_dir, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli-spec") / "kb.snap")
    assert (
        main(
            ["snapshot", "build", "--kb", kb_dir, "--out", path,
             "--embeddings", "--embedding-dim", "16"]
        )
        == 0
    )
    return path


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli-spec") / "corpus.jsonl")
    assert (
        main(
            ["corpus", "--out", path, "--seed", "7", "--clusters", "2",
             "--kind", "kore50"]
        )
        == 0
    )
    return path


def _subparser(command: str) -> argparse.ArgumentParser:
    parser = build_parser()
    subparsers = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return subparsers.choices[command]


def _shaping_actions(command: str):
    """The pipeline-shaping options *command* accepts."""
    probe = argparse.ArgumentParser()
    cli._add_relatedness_argument(probe)
    cli._add_prerank_arguments(probe)
    dests = {action.dest for action in probe._actions} - {"help"}
    dests |= {"variant"}
    return [
        action
        for action in _subparser(command)._actions
        if action.dest in dests
    ]


def _non_default(action) -> list:
    """Command-line tokens setting *action* to a non-default value."""
    if isinstance(action, argparse.BooleanOptionalAction):
        positive, negative = action.option_strings[:2]
        return [negative if action.default else positive]
    if action.nargs == 0:  # store_true
        return [action.option_strings[0]]
    if action.choices:
        value = next(c for c in action.choices if c != action.default)
        return [action.option_strings[0], str(value)]
    return [action.option_strings[0], str((action.default or 0) + 3)]


def _source_args(source: str, kb_dir: str, snap_path: str) -> list:
    if source == "kb":
        return ["--kb", kb_dir]
    return ["--snapshot", snap_path]


def _spec(command: str, tokens: list):
    extra = ["--corpus", "unused.jsonl"] if command == "evaluate" else []
    return cli._pipeline_spec(
        build_parser().parse_args([command, *tokens, *extra])
    )


def _built_config(spec):
    """Runs in a spawned worker: build from the unpickled spec."""
    return spec.build().config


COMMANDS = ("evaluate", "serve")
FLAGS = [
    (command, action.dest)
    for command in COMMANDS
    for action in _shaping_actions(command)
]


def test_flag_lists_cover_the_shared_helpers():
    dests = {dest for _command, dest in FLAGS}
    assert {
        "relatedness",
        "prerank_topk",
        "variant",
    } <= dests


@pytest.mark.parametrize(
    "tokens",
    [
        ["disambiguate", "--kb", "kb", "--text", "t", "--no-compiled"],
        ["evaluate", "--kb", "kb", "--corpus", "c", "--compiled"],
        ["serve", "--kb", "kb", "--no-compiled"],
        ["snapshot", "build", "--kb", "kb", "--out", "o",
         "--backend", "python"],
    ],
)
def test_removed_scoring_switches_are_argparse_errors(tokens, capsys):
    """One scoring path: the old compiled/backend switches are unknown
    arguments, not silently accepted no-ops."""
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(tokens)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command, dest", FLAGS)
def test_every_shaping_flag_reaches_the_spec(kb_dir, command, dest):
    action = next(
        action for action in _shaping_actions(command) if action.dest == dest
    )
    base = _spec(command, ["--kb", kb_dir])
    flagged = _spec(command, ["--kb", kb_dir, *_non_default(action)])
    assert flagged != base, f"{action.option_strings[0]} is not in the spec"


@pytest.mark.parametrize("source", ("kb", "snapshot"))
@pytest.mark.parametrize("command", COMMANDS)
def test_parent_and_worker_build_the_same_config(
    kb_dir, snap_path, command, source
):
    tokens = _source_args(source, kb_dir, snap_path)
    for action in _shaping_actions(command):
        tokens += _non_default(action)
    spec = _spec(command, tokens)
    shipped = pickle.loads(pickle.dumps(spec))
    assert shipped == spec
    parent = spec.build()
    assert parent.config == spec.config
    worker = shipped.build()
    assert worker.config == parent.config
    assert type(worker.relatedness) is type(parent.relatedness)


def test_spawned_workers_build_the_parents_config(kb_dir, snap_path):
    """Nothing inherited through fork: a spawned interpreter gets only
    the pickled spec and still builds the parent's config."""
    specs = []
    for source in ("kb", "snapshot"):
        tokens = _source_args(source, kb_dir, snap_path)
        for action in _shaping_actions("evaluate"):
            tokens += _non_default(action)
        specs.append(_spec("evaluate", tokens))
    with ProcessPoolExecutor(
        max_workers=1, mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        configs = list(pool.map(_built_config, specs))
    for spec, config in zip(specs, configs):
        assert config == spec.build().config


_ACCURACY = re.compile(r"^(micro accuracy|macro accuracy|MAP):", re.M)
_MEMO = re.compile(
    r"relatedness memo: (\d+) hits, (\d+) misses "
    r"\((\d+\.\d)% hit rate\)"
)


def _evaluate(capsys, *args) -> str:
    capsys.readouterr()
    assert main(["evaluate", *args]) == 0
    return capsys.readouterr().out


def _accuracy_lines(out: str) -> list:
    return [
        line for line in out.splitlines() if _ACCURACY.match(line)
    ]


@pytest.mark.parametrize(
    "source, executor",
    [("kb", "thread"), ("kb", "process"), ("snapshot", "process")],
)
def test_cache_summary_counts_the_caches_that_did_the_work(
    kb_dir, snap_path, corpus_path, capsys, source, executor
):
    args = [
        *_source_args(source, kb_dir, snap_path),
        "--corpus", corpus_path,
        "--relatedness", "kore",
    ]
    serial = _evaluate(capsys, *args)
    pooled = _evaluate(
        capsys, *args, "--workers", "2", "--executor", executor
    )
    assert len(_accuracy_lines(serial)) == 3
    assert _accuracy_lines(pooled) == _accuracy_lines(serial)
    counts = []
    for out in (serial, pooled):
        match = _MEMO.search(out)
        assert match, out
        hits, misses = map(int, match.groups()[:2])
        assert hits > 0
        assert misses > 0
        assert float(match.group(3)) == round(
            100 * hits / (hits + misses), 1
        )
        counts.append(hits + misses)
    # Lookups are a per-document count: workers fetch what serial does.
    assert counts[0] == counts[1]
