"""Command-line behavior: round trips, determinism, exit codes."""

import argparse
import ast
import hashlib
import os
import re
import subprocess
import sys
import types
from fractions import Fraction
from importlib.resources import files
from pathlib import Path

import pytest

import modsweep
from modsweep import (Partition, detect_communities, format_partition, load_edge_list,
                      modularity, parse_partition, singleton_partition)
from modsweep.cli import build_parser, main
from modsweep.rational import rounded

BARBELL_TEXT = "a b\nb c\na c\nd e\ne f\nd f\nc d\n"


def child_env() -> dict[str, str]:
    """Environment in which a child process imports the package from the
    same source tree as the tests."""
    src = str(Path(modsweep.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def barbell_file(tmp_path):
    path = tmp_path / "barbell.edges"
    path.write_text(BARBELL_TEXT)
    return str(path)


class TestDetect:
    def test_summary_and_partition(self, capsys, tmp_path, barbell_file):
        out_path = tmp_path / "part.txt"
        code, out, _ = run_cli(
            capsys, "detect", barbell_file, "--t-min", "1", "--output", str(out_path)
        )
        assert code == 0
        assert "communities 2" in out
        assert "q_1 0.357142857143" in out
        text = out_path.read_text()
        assert text == "a 0\nb 0\nc 0\nd 1\ne 1\nf 1\n"

    def test_trace_csv(self, capsys, tmp_path, barbell_file):
        trace_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(capsys, "detect", barbell_file, "--trace", str(trace_path))
        assert code == 0
        lines = trace_path.read_text().strip().splitlines()
        assert lines[0] == "step,t,k,q_t,q_1,alpha"
        assert lines[1].startswith("0,3.5,6,")

    def test_deterministic_outputs(self, capsys, tmp_path, barbell_file):
        outs = []
        for i in range(2):
            out_path = tmp_path / f"p{i}.txt"
            tr_path = tmp_path / f"t{i}.csv"
            code, out, _ = run_cli(
                capsys, "detect", barbell_file,
                "--output", str(out_path), "--trace", str(tr_path),
            )
            assert code == 0
            outs.append((out, out_path.read_bytes(), tr_path.read_bytes()))
        assert outs[0] == outs[1]

    def test_score_round_trip(self, capsys, tmp_path, barbell_file):
        out_path = tmp_path / "part.txt"
        _, detect_out, _ = run_cli(
            capsys, "detect", barbell_file, "--output", str(out_path)
        )
        q_line = [l for l in detect_out.splitlines() if l.startswith("q_t_min")][0]
        code, score_out, _ = run_cli(
            capsys, "score", barbell_file, str(out_path), "--t", "1"
        )
        assert code == 0
        assert f"q_t {q_line.split()[1]}" in score_out
        assert "k 2" in score_out
        assert "alpha 0.5" in score_out

    @pytest.mark.parametrize("t_min", ["0.7", "1", "1.3", "3"])
    def test_scores_match_the_partition(self, capsys, tmp_path, t_min):
        """The summary's scores, read from the sweep's last trace record,
        are those of the printed partition on the input graph."""
        karate = str(files("modsweep").joinpath("data/karate.edges"))
        path = tmp_path / "karate.parts"
        code, out, _ = run_cli(capsys, "detect", karate, "--t-min", t_min,
                               "--output", str(path))
        assert code == 0
        graph, labels = load_edge_list(Path(karate).read_text())
        part = parse_partition(path.read_text(), labels)
        summary = dict(line.split() for line in out.splitlines())
        assert summary["q_t_min"] == rounded(modularity(graph, part, Fraction(t_min)))
        assert summary["q_1"] == rounded(modularity(graph, part, 1))

    def test_exact_report(self, capsys, barbell_file):
        code, out, _ = run_cli(capsys, "detect", barbell_file, "--exact-report")
        assert code == 0
        assert "final_resolution_exact 2/7" in out

    def test_stdin_pipe(self, tmp_path):
        env = child_env()
        gen = subprocess.run(
            [sys.executable, "-m", "modsweep", "gen", "tree", "--height", "5"],
            capture_output=True, text=True, check=True, env=env,
        )
        det = subprocess.run(
            [sys.executable, "-m", "modsweep", "detect", "-", "--t-min", "1",
             "--trace", str(tmp_path / "tr.csv")],
            input=gen.stdout, capture_output=True, text=True, check=True, env=env,
        )
        q1 = float([l for l in det.stdout.splitlines() if l.startswith("q_1")][0].split()[1])
        assert 0.75 <= q1 <= 0.763
        assert (tmp_path / "tr.csv").read_text().startswith("step,t,k,q_t,q_1,alpha")


class TestScore:
    def test_whole_set_scores_zero(self, capsys, tmp_path, barbell_file):
        part = tmp_path / "whole.txt"
        part.write_text("".join(f"{v} 0\n" for v in "abcdef"))
        code, out, _ = run_cli(capsys, "score", barbell_file, str(part), "--t", "1")
        assert code == 0
        assert "q_t 0\n" in out or "q_t -0\n" in out
        assert "q_bar_t 0" in out
        assert "k 1" in out

    def test_fractional_t(self, capsys, tmp_path, barbell_file):
        part = tmp_path / "p.txt"
        part.write_text("a 0\nb 0\nc 0\nd 1\ne 1\nf 1\n")
        code, out, _ = run_cli(
            capsys, "score", barbell_file, str(part), "--t", "3/2", "--exact-report"
        )
        assert code == 0
        assert "t_exact 3/2" in out


class TestVerify:
    def test_engine_output_passes(self, capsys, tmp_path, barbell_file):
        part = tmp_path / "p.txt"
        run_cli(capsys, "detect", barbell_file, "--output", str(part))
        code, out, _ = run_cli(capsys, "verify", barbell_file, str(part), "--t", "1")
        assert code == 0
        assert "RESULT PASS" in out
        assert "merge_stable PASS" in out

    def test_exact_report(self, capsys, tmp_path, barbell_file):
        part = tmp_path / "p.txt"
        run_cli(capsys, "detect", barbell_file, "--output", str(part))
        code, out, _ = run_cli(capsys, "verify", barbell_file, str(part), "--t", "0.75",
                               "--exact-report")
        assert code == 0
        assert out.splitlines()[0] == "t_exact 3/4"
        _, plain, _ = run_cli(capsys, "verify", barbell_file, str(part), "--t", "0.75")
        assert out.splitlines()[1:] == plain.splitlines()

    def test_unstable_partition_fails(self, capsys, tmp_path, barbell_file):
        part = tmp_path / "p.txt"
        part.write_text("".join(f"{v} {i}\n" for i, v in enumerate("abcdef")))
        code, out, _ = run_cli(capsys, "verify", barbell_file, str(part), "--t", "1")
        assert code == 1
        assert "RESULT FAIL" in out

    def test_karate_engine_output_passes(self, capsys, tmp_path):
        edges = tmp_path / "karate.edges"
        edges.write_text(files("modsweep").joinpath("data/karate.edges").read_text())
        part = tmp_path / "p.txt"
        run_cli(capsys, "detect", str(edges), "--output", str(part))
        code, out, _ = run_cli(capsys, "verify", str(edges), str(part), "--t", "1")
        assert code == 0
        assert "RESULT PASS" in out
        assert "merge_stable PASS" in out
        assert "cut_window PASS" in out
        assert "block_count_bound PASS" in out

    def test_tree_of_height_12_passes(self, capsys, tmp_path):
        edges, part = tmp_path / "tree.edges", tmp_path / "tree.parts"
        assert run_cli(capsys, "gen", "tree", "--height", "12", "--output", str(edges))[0] == 0
        assert run_cli(capsys, "detect", str(edges), "--output", str(part))[0] == 0
        code, out, _ = run_cli(capsys, "verify", str(edges), str(part), "--t", "1")
        assert code == 0
        assert "cut_window PASS" in out
        assert "RESULT PASS" in out


class TestGen:
    def test_tree_counts(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "tree", "--height", "3")
        assert code == 0
        assert len(out.strip().splitlines()) == 14

    def test_daisy_counts(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "daisy", "--r", "1")
        assert code == 0
        assert len(out.strip().splitlines()) == 75

    def test_tree_partition(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "tree-partition", "--height", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 63
        assert len({l.split()[1] for l in lines}) == 9


class TestOracleCommand:
    def test_barbell(self, capsys, barbell_file):
        code, out, _ = run_cli(capsys, "oracle", barbell_file, "--t", "1")
        assert code == 0
        assert "best_q 0.357142857143" in out
        assert "partitions_examined 203" in out

    def test_output_file(self, capsys, tmp_path, barbell_file):
        path = tmp_path / "best.txt"
        _, printed, _ = run_cli(capsys, "oracle", barbell_file, "--t", "1")
        code, out, _ = run_cli(capsys, "oracle", barbell_file, "--t", "1", "--output", str(path))
        assert code == 0
        summary = printed.splitlines()[:2]
        assert out.splitlines() == summary
        assert path.read_text().splitlines() == printed.splitlines()[2:]


class TestMincut:
    def test_barbell(self, capsys, barbell_file):
        code, out, _ = run_cli(capsys, "mincut", barbell_file)
        assert code == 0
        assert out.strip().splitlines()[-1] == "1"


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "detect", "/no/such/file")
        assert code == 2
        assert "error:" in err

    def test_malformed_edge_list(self, capsys, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("a b notaweight\n")
        code, _, err = run_cli(capsys, "detect", str(bad))
        assert code == 2
        assert "line 1" in err

    def test_bad_t(self, capsys, barbell_file, tmp_path):
        part = tmp_path / "p.txt"
        part.write_text("".join(f"{v} 0\n" for v in "abcdef"))
        code, _, err = run_cli(capsys, "score", barbell_file, str(part), "--t", "-1")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("detect", "{graph}", "--t-min", "1e400", "--output", "{out}"),
        ("score", "{graph}", "{part}", "--t", "1e400"),
        ("verify", "{graph}", "{part}", "--t", "1e400", "--exact-report"),
        ("detect", "{huge}", "--trace", "{trace}", "--output", "{out}"),
        ("oracle", "{graph}", "--t", "1e400", "--output", "{out}"),
    ])
    def test_values_outside_float_range(self, capsys, tmp_path, barbell_file, argv):
        """A value that cannot be printed exits 2 before anything is written."""
        part = tmp_path / "p.txt"
        part.write_text("".join(f"{v} 0\n" for v in "abcdef"))
        huge = tmp_path / "huge.edges"
        huge.write_text(f"a b {10 ** 400}\nc d 1\n")
        out, trace = tmp_path / "out.txt", tmp_path / "trace.csv"
        paths = {"graph": barbell_file, "part": str(part), "huge": str(huge),
                 "out": str(out), "trace": str(trace)}
        code, stdout, err = run_cli(capsys, *(a.format(**paths) for a in argv))
        assert code == 2
        assert err.startswith("error:")
        assert stdout == ""
        assert not out.exists() and not trace.exists()

    @pytest.mark.parametrize("argv", [
        ("detect", "{graph}", "--trace", "{trace}", "--output", "{bad}"),
        ("oracle", "{graph}", "--output", "{bad}"),
    ])
    def test_unwritable_output(self, capsys, tmp_path, barbell_file, argv):
        """An unwritable path exits 2 before stdout is written; a file
        named before it stays written."""
        trace = tmp_path / "trace.csv"
        paths = {"graph": barbell_file, "trace": str(trace), "bad": str(tmp_path / "nodir/p.txt")}
        code, stdout, err = run_cli(capsys, *(a.format(**paths) for a in argv))
        assert code == 2
        assert stdout == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert trace.exists() == ("--trace" in argv)

    def test_weights_beyond_float_range(self, capsys, tmp_path):
        """The sweep is exact, so such a graph fails only where a value
        beyond float range is printed, as in its trace."""
        huge = tmp_path / "huge.edges"
        huge.write_text(f"a b {10 ** 400}\nc d 1\n")
        code, out, _ = run_cli(capsys, "detect", str(huge))
        assert code == 0
        assert "communities 2" in out.splitlines()
        assert "final_resolution 0" in out.splitlines()

    def test_ensure_connected_flag_rejected(self, barbell_file):
        # every community the sweep returns is connected, so there is no
        # --ensure-connected knob
        with pytest.raises(SystemExit) as exc:
            main(["detect", barbell_file, "--ensure-connected"])
        assert exc.value.code == 2

    def test_mincut_disconnected(self, capsys, tmp_path):
        path = tmp_path / "two.edges"
        path.write_text("a b\nc d\n")
        code, _, err = run_cli(capsys, "mincut", str(path))
        assert code == 2


def test_printed_bytes_are_pinned(capsys, tmp_path):
    """sha256 of the text the CLI prints for karate: the detect summary, its
    trace CSV and partition file, and the verify report of that partition;
    and of three ``gen`` outputs."""
    def digest(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    karate = str(files("modsweep").joinpath("data/karate.edges"))
    trace, part = tmp_path / "karate.trace", tmp_path / "karate.parts"
    code, out, _ = run_cli(capsys, "detect", karate, "--exact-report",
                           "--trace", str(trace), "--output", str(part))
    assert code == 0
    assert digest(out) == "56ccb454d03461c8491987a2891334a3264424d591ee3be83d317c1708e84dec"
    assert digest(trace.read_text()) == (
        "1b4181b5f49f45ab46fa168b3873bbbec75f89eeb524b321f6c9a283fa3e618e")
    assert digest(part.read_text()) == (
        "028c16f36bea878371e9bec8cfd792fef4b16143100cdbb0ecceea78900f5c5f")
    code, out, _ = run_cli(capsys, "verify", karate, str(part), "--t", "1")
    assert code == 0
    assert digest(out) == "134964fc8c56feb65083619a0f6fb91e5e7eb4cc9e32eb1e61cf648b5aeebfd0"
    for argv, expected in (
            (("tree", "--height", "12"),
             "4ab513c4beaddb66deef2d90bc0540140186f396d48bd8eeabdcf61134fb0092"),
            (("daisy", "--r", "3"),
             "bce9d762c0433114e5e305cee4308679a7e1263c3e5b0f1b92bad0e100543ccc"),
            (("tree-partition", "--height", "9"),
             "4f60affb0b0751b37d2e96427e1f3e22f57cb092b6e5d38abaacdfa2740a0b02")):
        code, out, _ = run_cli(capsys, "gen", *argv)
        assert code == 0
        assert digest(out) == expected, argv


def test_verify_bytes_are_pinned_on_every_skip_branch(capsys, tmp_path, karate):
    """sha256 of ``verify``'s report, and its exit code, on each branch that
    skips rows: karate's detected partition at t = 2 (the two rows that need
    t <= 1), its singletons (a witness pair, exit 1), karate as one block
    (k = 1), and two disjoint triangles as two blocks (not connected)."""
    g, labels = karate
    karate_path = str(files("modsweep").joinpath("data/karate.edges"))
    triangles = tmp_path / "triangles.edges"
    triangles.write_text("a b\nb c\na c\nd e\ne f\nd f\n")
    cases = (
        ("detected at t = 2", karate_path,
         format_partition(detect_communities(g, 1)[0], labels), "2", 0,
         "c4796fdbc3584f644c871162c04107107f9dd85bc2c138702b7a18c4025483ef"),
        ("singletons", karate_path, format_partition(singleton_partition(g), labels), "1", 1,
         "4092e16393434561e05e7a28d4349d25a6e3f5f7c29a66df27d28cdf3272071c"),
        ("one block", karate_path, format_partition(Partition([0] * g.n), labels), "1", 0,
         "4fbab414d81d8a47f4c57c0d4ef44343cabc8deb710bcd71f9c3d97ed8322211"),
        ("two triangles", str(triangles), "a 0\nb 0\nc 0\nd 1\ne 1\nf 1\n", "1", 0,
         "8c82afd1d639a791f6da6c6a95aa8744d86673984d478bb541b1fcc089eaeee8"),
    )
    part = tmp_path / "case.parts"
    for name, graph, text, t, expected_code, expected in cases:
        part.write_text(text)
        code, out, _ = run_cli(capsys, "verify", graph, str(part), "--t", t)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (expected_code, expected), name


def _calls(node: ast.AST, name: str, scope: tuple[str, ...] = ()):
    """Yield the dotted name of the definition around each call of the
    function spelled ``name``, such as ``float`` or ``sys.stdout.write``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _calls(child, name, scope + (child.name,))
            continue
        if isinstance(child, ast.Call) and ast.unparse(child.func) == name:
            yield ".".join(scope)
        yield from _calls(child, name, scope)


def _call_sites(*names: str) -> set[str]:
    src = Path(__file__).resolve().parents[1] / "src" / "modsweep"
    return {f"{path.name}:{scope}" for path in sorted(src.glob("*.py"))
            for name in names for scope in _calls(ast.parse(path.read_text()), name)}


def test_only_text_output_rounds_to_float():
    """Library results stay exact: ``float()`` is called only by the one
    rounding helper and by ``TraceRecord.t``."""
    assert _call_sites("float") == {"rational.py:rounded", "engine.py:TraceRecord.t"}


def test_only_main_writes_stdout():
    """Commands return their text; ``cli.main`` alone writes it."""
    assert _call_sites("print", "sys.stdout.write") == {"cli.py:main"}


def test_one_graph_builder():
    """Graphs are built by ``Graph.from_edge_list``, the one public builder,
    and by ``quotient`` from a checked graph, both through ``_build``;
    ``Graph(...)`` raises, and no function calls it."""
    assert _call_sites("Graph") == set()


def test_one_aggregate_builder():
    """Block aggregates are built only by ``CommunityAggregates.from_partition``,
    which calls ``cls``; no function hands the class a quotient of its own."""
    assert _call_sites("CommunityAggregates") == set()


def test_one_check_row_builder():
    """``bounds_report`` writes every row, skipped or not, through its one
    local helper, so each skip reason is decided in one place."""
    assert _call_sites("CheckRow") == {"modularity.py:bounds_report.row"}


def test_one_formula_per_block_probability():
    """``bounds_report`` takes m_v, m_e, rho, mu and the pair edge fractions
    from the ``CommunityAggregates`` accessors, never from the block integers,
    so ``verify`` certifies the numbers the library returns."""
    src = Path(__file__).resolve().parents[1] / "src" / "modsweep" / "modularity.py"
    func = next(node for node in ast.walk(ast.parse(src.read_text()))
                if isinstance(node, ast.FunctionDef) and node.name == "bounds_report")
    read = {node.attr for node in ast.walk(func) if isinstance(node, ast.Attribute)}
    assert read & {"block_degree", "internal", "rows"} == set()


# Each module imports only modules earlier in this list.
LAYERS = ("errors", "rational", "partition", "graph", "modularity", "engine",
          "generators", "oracle", "cli")


def _imports(node: ast.AST):
    """Yield each package module that ``node`` imports, type-only imports
    included."""
    for child in ast.iter_child_nodes(node):
        dotted = []
        if isinstance(child, ast.Import):
            dotted = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            base = ".".join(filter(None, ("modsweep" if child.level else "", child.module)))
            dotted = [f"{base}.{alias.name}" for alias in child.names]
        yield from (name.split(".")[1] for name in dotted if name.startswith("modsweep."))
        yield from _imports(child)


def test_modules_import_only_lower_layers():
    src = Path(__file__).resolve().parents[1] / "src" / "modsweep"
    modules = sorted(p.stem for p in src.glob("*.py") if p.stem not in ("__init__", "__main__"))
    assert modules == sorted(LAYERS)
    upward = {name: sorted(set(_imports(ast.parse((src / f"{name}.py").read_text())))
                           - set(LAYERS[:LAYERS.index(name)]))
              for name in LAYERS}
    assert upward == {name: [] for name in LAYERS}


def test_cli_import_is_light():
    """Importing the CLI loads neither ``dataclasses`` nor ``inspect``, which
    bring ``ast``, ``dis`` and ``tokenize`` with them and which no module
    uses: about 1 MB of resident memory in every process."""
    code = "import sys, modsweep.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True, env=child_env())
    assert child.stdout == "[]\n"


def test_all_names_every_public_attribute():
    """``modsweep.__all__`` lists exactly the package's public names that
    are not submodules, so the import blocks and the list cannot drift."""
    public = {name for name, value in vars(modsweep).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(modsweep.__all__) == public


def _flags(parser: argparse.ArgumentParser) -> set[str]:
    """Long options of ``parser`` and of its nested subcommands, but --help."""
    flags = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _flags(sub)
        flags.update(o for o in action.option_strings if o.startswith("--") and o != "--help")
    return flags


def test_every_argument_has_help():
    """``--help`` of every command and gen kind gives each argument a line
    of text: subcommands through their choice lines, the rest through their
    own help, argparse's -h aside."""
    parsers = [build_parser()]
    for parser in parsers:
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                assert all(choice.help for choice in action._choices_actions), parser.prog
                parsers += action.choices.values()
            elif not isinstance(action, argparse._HelpAction):
                assert action.help, (parser.prog, action.dest)
    assert len(parsers) == 10


def test_readme_synopsis_matches_the_parser():
    """Each subcommand has one synopsis line in the README's CLI section
    that names exactly the options the parser accepts."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## CLI", 1)[1].split("```")[1]
    synopsis = {}
    for line in block.splitlines():
        line = line.split("#", 1)[0]
        words = line.split()
        if words[:1] == ["modsweep"]:
            assert words[1] not in synopsis, words[1]
            synopsis[words[1]] = set(re.findall(r"--[a-z][a-z-]*", line))
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert set(synopsis) == set(commands.choices)
    for name, parser in commands.choices.items():
        assert synopsis[name] == _flags(parser), name


def test_readme_library_example_runs(tmp_path, monkeypatch):
    """The README's Library example runs as written on the bundled karate
    file, read through a file handle whose lines end in a newline."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    code = readme.read_text().split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    karate = files("modsweep").joinpath("data/karate.edges").read_text()
    (tmp_path / "graph.edges").write_text(karate)
    monkeypatch.chdir(tmp_path)
    ns: dict = {}
    exec(code, ns)
    assert len(ns["part"]) == 4
    assert round(float(ns["ms"].modularity(ns["g"], ns["part"], 1)), 3) == 0.405
    assert ns["ok"] is True
    assert ns["report"].all_pass
