import argparse
import ast
import io
import json
import os
import re
import subprocess
import sys
import tokenize
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import gradedcy
from gradedcy.cli import DOT_RENDERERS, build_parser, main
from gradedcy.complexes import parse_complex
from gradedcy.errors import ParseError
from gradedcy.quiver import load_presentation, parse_presentation

from helpers import DATA, dimer_text, honeycomb_torus, matchings_json


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("n,dims", [(9, (81, 171)), (12, (144, 300))])
def test_corpi_works_past_eight_vertices(tmp_path, n, dims):
    """corpi on the linear quiver A_n: its first preprojective layer has
    words of 2n - 1 arrows, which the cap of 8 that corpi used to fix
    refused (CapTooSmall on A9, NonStabilizing on A12)."""
    path = tmp_path / f"a{n}.quiver"
    path.write_text("[vertices]\n" + "".join(f"{v}\n" for v in range(n))
                    + "[arrows]\n" + "".join(f"a{v} {v} {v + 1} 0\n"
                                              for v in range(n - 1)))
    for layers, dim in zip((1, 2), dims):
        code, out, err = run("--format", "json", "corpi", path,
                             "--n", layers)
        assert (code, err) == (0, "")
        assert json.loads(out)["dim_B"] == dim


def test_dims_table():
    code, out, _ = run("dims", DATA / "k_xy.pres", "--max-degree", "4")
    assert code == 0
    for total in (1, 2, 3, 4, 5):
        assert f"total {total}" in out
    assert "conventions" in out


def test_deterministic_output():
    a = run("dims", DATA / "k_xyz.pres", "--max-degree", "3")
    b = run("dims", DATA / "k_xyz.pres", "--max-degree", "3")
    assert a == b


def test_json_format():
    code, out, _ = run("--format", "json", "dims", DATA / "k_xy.pres",
                       "--max-degree", "2")
    data = json.loads(out)
    assert data["0"]["total"] == 1 and data["-2"]["total"] == 3


def test_build_abc():
    code, out, _ = run("build-abc", DATA / "k_xy.pres", "--a", "2")
    assert code == 0
    assert "dim A = 4, dim U = 8, dim B = 12" in out


def test_tilde():
    code, out, _ = run("tilde", DATA / "k_x.pres", "--a", "1", "--n", "3")
    assert code == 0 and "dim B~ = 6" in out


def test_layered_and_block_subcommands_agree():
    for quiver in ("kronecker.quiver", "three_vertex.quiver"):
        for n in ("1", "2"):
            code1, out1, _ = run("--format", "json", "qhat",
                                 DATA / quiver, "--n", n)
            code2, out2, _ = run("--format", "json", "corpi",
                                 DATA / quiver, "--n", n)
            assert code1 == code2 == 0
            assert json.loads(out1)["dim_up_to_length"] == \
                json.loads(out2)["dim_B"]


def test_dimer_subcommands():
    code, out, _ = run("dimer", "validate", DATA / "hexagonal.dimer")
    assert code == 0 and "'chi': 0" in out
    code, out, _ = run("dimer", "validate", DATA / "four_face.dimer")
    assert code == 0
    code, out, _ = run("dimer", "matchings", DATA / "hexagonal.dimer")
    assert code == 0 and json.loads(out)["count"] == 3
    code, out, _ = run("dimer", "qp", DATA / "four_face.dimer")
    assert code == 0
    code, out, _ = run("dimer", "consistency", DATA / "hexagonal.dimer")
    assert code == 0 and json.loads(out)["margin"] == "2/3"
    code, out, _ = run("dimer", "consistency", DATA / "pendant.dimer")
    assert code == 1
    code, out, _ = run("dimer", "jacobian", DATA / "hexagonal.dimer")
    assert code == 0 and "a-invariant 3" in out
    code, out, _ = run("dimer", "jacobian", DATA / "four_face.dimer",
                       "--matchings", "0", "--coeffs", "-1")
    assert code == 0


@pytest.mark.parametrize("action", ["validate", "qp", "consistency",
                                    "matchings"])
@pytest.mark.parametrize("flags", [["--matchings", "0"], ["--coeffs", "5"],
                                   ["--matchings", "0", "--coeffs", "5"]])
def test_dimer_matching_flags_belong_to_jacobian(action, flags, tmp_path):
    """Only dimer jacobian reads --matchings and --coeffs; every other
    action refuses them, before it opens its file, instead of ignoring
    them and exiting 0."""
    assert run("dimer", action, tmp_path / "missing.dimer", *flags) == (
        2, "", f"error: --matchings and --coeffs belong to dimer jacobian; "
               f"dimer {action} takes neither\n")


def test_dimer_jacobian_input_errors_exit_2():
    for flags, wanted in (
            (["--matchings", "0,9"], ["--matchings index 9", "has 3"]),
            (["--matchings", "-1"], ["--matchings index -1", "has 3"]),
            (["--matchings", "0,1", "--coeffs", "-1"],
             ["--coeffs", "got 1 for 2", "has 3"]),
            (["--matchings", "0,x"], ["--matchings", "integers"]),
            (["--coeffs", "5,7"], ["--coeffs needs --matchings"])):
        code, out, err = run("dimer", "jacobian", DATA / "hexagonal.dimer",
                             *flags)
        assert code == 2 and out == ""
        assert all(w in err for w in wanted), err


@pytest.mark.parametrize("coeffs", [["--coeffs", "-1,-2"],
                                    ["--coeffs=-1,-2"]])
def test_dimer_jacobian_negative_coeffs_spellings(coeffs):
    """Negative coefficients, the usual case, may follow --coeffs as their
    own argument, as --window values may."""
    code, out, err = run("--format", "json", "dimer", "jacobian",
                         DATA / "hexagonal.dimer", "--matchings", "0,1",
                         *coeffs)
    assert code == 0, err
    assert json.loads(out) == {"a_invariant": 3, "relations": 3,
                               "degrees": {"e1": -1, "e2": -2, "e3": 0}}


@pytest.mark.parametrize("old,new,line,message", [
    ("[rotation]", "[rotations]", 9, "unknown section [rotations]"),
    ("w white", "w grey", 4, "vertex line must be: id black|white"),
    ("w white", "w white\nb white", 5, "duplicate vertex b"),
    ("e3 b w", "e3 b", 8, "edge line must be: id black-end white-end"),
    ("e3 b w", "e3 b u", 8, "unknown vertex u"),
    ("w: e1 e2 e3", "w e1 e2 e3", 11,
     "rotation line must be: vertex: edges..."),
    ("w: e1 e2 e3", "u: e1 e2 e3", 11, "unknown vertex u"),
    ("[vertices]", "b black\n[vertices]", 2,
     "content before any section header"),
    ("w: e1 e2 e3", "w: e1 e2 e3\nw: e3 e2 e1", 12,
     "[rotation] gives vertex w again, first on line 11"),
    ("e3 b w", "e3 b w\ne1 b w", 9,
     "[edges] gives edge e1 again, first on line 6"),
    (None, "", None, "no [vertices] section"),
    (None, "# no vertices\n[vertices]\n", None, "no [vertices] section"),
])
def test_dimer_file_faults_name_the_line(tmp_path, old, new, line, message):
    """Each malformed line of a .dimer file is refused with the file and
    the line, exit 2; a second rotation of one vertex (which used to give
    NotTorus, exit 1) and a repeated edge name name the first line too.
    A file with no vertex (`old` None: the file is `new`), which used to
    validate as an empty torus, is refused as an empty .pres file is."""
    text = (DATA / "hexagonal.dimer").read_text(encoding="utf-8")
    if old is not None:
        assert text.count(old) == 1
    path = tmp_path / "bad.dimer"
    path.write_text(new if old is None else text.replace(old, new),
                    encoding="utf-8")
    code, out, err = run("dimer", "validate", path)
    assert (code, out) == (2, "")
    where = f"{path}:{line}: " if line else f"{path}: "
    assert err == f"error: {where}{message}\n"


def test_cy_check_twist_file(tmp_path):
    """--twist file reads the presentation's [twist] section: k[x, y] with
    x, y -> -x, -y is the sign twist, and without the section the check
    is refused, exit 2."""
    code, out, err = run("cy-check", DATA / "k_xy.pres", "--twist", "file")
    assert (code, out) == (2, "")
    assert err == "error: presentation has no [twist] section\n"
    path = tmp_path / "k_xy_twist.pres"
    path.write_text((DATA / "k_xy.pres").read_text(encoding="utf-8")
                    + "[twist]\nx -1\ny -1\n", encoding="utf-8")
    code, out, err = run("cy-check", path, "--twist", "file")
    assert code == 0, err
    assert out == run("cy-check", DATA / "k_xy.pres", "--twist", "sigma")[1]


def test_cy_check_exit_codes():
    code, _, _ = run("cy-check", DATA / "k_xy.pres", "--twist", "sigma")
    assert code == 0
    code, _, _ = run("cy-check", DATA / "k_xy.pres", "--twist", "id")
    assert code == 1
    code, _, _ = run("cy-check", DATA / "k_x.pres", "--twist", "id")
    assert code == 0
    code, _, _ = run("cy-check", DATA / "skew_3.pres", "--twist", "id",
                     "--window=-4..0")
    assert code == 0
    code, _, _ = run("cy-check", DATA / "k_xy.pres", "--twist", "sigma",
                     "--resolution", DATA / "koszul_xy.cpx")
    assert code == 0


@pytest.mark.parametrize("window", [["--window=-9..0"],
                                    ["--window", "-9..0"]])
def test_cy_check_window_spellings(window):
    code, out, err = run("--format", "json", "cy-check",
                         DATA / "skew_3.pres", "--twist", "id", *window)
    assert code == 0, err
    rows = json.loads(out)["rows"]
    assert [r["degree"] for r in rows] == list(range(0, -10, -1))
    assert rows[-1]["computed"] == 6765     # coefficient of 1/(1-3t+t^2)


def test_dims_non_stabilizing_exit_1(tmp_path):
    loop = tmp_path / "loop.pres"
    loop.write_text("[vertices]\nP\n[arrows]\nx P P 0\n")
    code, out, err = run("dims", loop, "--max-degree", "2", "--cap", "5")
    assert code == 1 and out == ""
    assert "NonStabilizing" in err and "degree 0" in err
    assert "--cap 5" in err and "heuristic" in err


def test_non_stabilizing_names_a_degree_zero_cycle(tmp_path):
    """x*t = t*x with deg t = 0: every t^k is normal, so the degree-0
    piece grows with the cap and the error names the cycle t.  Without a
    degree-0 arrow (k[x, y] at too small a cap) it names none."""
    pres = tmp_path / "xt.pres"
    pres.write_text("[vertices]\nP\n[arrows]\nx P P -1\nt P P 0\n"
                    "[relations]\nx*t - t*x\n")
    code, out, err = run("dims", pres, "--max-degree", "2")
    assert code == 1 and out == ""
    assert "a degree-0 cycle survives (t: all its powers are normal at " \
        "--cap 6) or --cap is too small" in err, err
    code, _, err = run("dims", DATA / "k_xy.pres", "--cap", "2")
    assert code == 1 and "a degree-0 cycle survives or --cap" in err, err


def test_dims_explicit_cap_zero_is_used():
    code, out, err = run("dims", DATA / "k_x.pres", "--cap", "0",
                         "--max-degree", "2")
    assert code == 1 and out == ""
    assert "NonStabilizing" in err and "--cap 0" in err


def test_negative_cap_rejected_at_parse_time():
    with pytest.raises(SystemExit) as exc, redirect_stderr(io.StringIO()):
        main(["dims", str(DATA / "k_x.pres"), "--cap", "-1"])
    assert exc.value.code == 2


BOUNDED_FLAGS = [
    (["build-abc", "k_xy.pres", "--a", "0"], "--a", 1),
    (["tilde", "k_xy.pres", "--a", "0", "--n", "2"], "--a", 1),
    (["ig-check", "k_xy.pres", "--a", "0", "--d", "1"], "--a", 1),
    (["verify-root", "k_xy.pres", "--a", "0"], "--a", 1),
    (["tilde", "k_xy.pres", "--a", "1", "--n", "0"], "--n", 1),
    (["qhat", "a2.quiver", "--n", "0"], "--n", 1),
    (["corpi", "a2.quiver", "--n", "0"], "--n", 1),
    (["knit", "a2.quiver", "--steps", "-1"], "--steps", 0),
    (["verify-root", "k_xy.pres", "--a", "2", "--steps", "-1"], "--steps",
     0),
    (["dims", "k_xy.pres", "--max-degree", "-2"], "--max-degree", 0),
    (["ig-check", "k_xy.pres", "--a", "2", "--d", "-1"], "--d", 0),
    (["cy-check", "k_xy.pres", "--twist", "sigma", "--cap", "-1"], "--cap",
     0),
]


@pytest.mark.parametrize("argv,flag,low", BOUNDED_FLAGS,
                         ids=[f"{a[0]} {f}" for a, f, _ in BOUNDED_FLAGS])
def test_integer_flags_are_bounded_at_parse_time(argv, flag, low):
    """Counts (--a, --n) start at 1, lengths and degrees (--steps,
    --max-degree, --d, --cap) at 0; a value below is refused before any
    work with exit 2 and a message naming the flag (it used to end in a
    traceback, an empty report or a vacuous PASS)."""
    argv = [str(DATA / a) if a.endswith((".pres", ".quiver")) else a
            for a in argv]
    value = argv[argv.index(flag) + 1]
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, redirect_stderr(err), \
            redirect_stdout(io.StringIO()) as out:
        main(argv)
    assert exc.value.code == 2 and out.getvalue() == ""
    assert f"argument {flag}: expected an integer >= {low}, not " \
        f"'{value}'" in err.getvalue(), err.getvalue()


def test_integer_flag_bounds_are_allowed():
    code, out, _ = run("dims", DATA / "k_x.pres", "--max-degree", "0")
    assert code == 0 and "degree 0: total 1" in out
    code, out, _ = run("knit", DATA / "a2.quiver", "--steps", "0")
    assert code == 0 and "knitted component, 0 steps" in out


def test_ig_check():
    code, out, _ = run("ig-check", DATA / "k_xy.pres", "--a", "2",
                       "--d", "1")
    assert code == 0 and "holds" in out
    code, out, _ = run("ig-check", DATA / "k_x.pres", "--a", "1", "--d", "1")
    assert code == 0


def test_ig_check_k_xyz_json():
    code, out, _ = run("--format", "json", "ig-check", DATA / "k_xyz.pres",
                       "--a", "3", "--d", "2")
    assert code == 0
    assert json.loads(out) == {"d": 2, "holds": True, "inj_dim_left": 2,
                               "inj_dim_right": 2}


def test_package_imports_lazily():
    """Importing the CLI loads only the modules it uses at start-up; the
    package's public names still resolve, and unknown names raise."""
    src = str(Path(gradedcy.__file__).resolve().parent.parent)
    probe = ("import sys, gradedcy.cli; "
             "print([m for m in sys.modules if m.startswith('gradedcy')])")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert all(f"gradedcy.{m}'" not in out
               for m in ("findim", "dimer", "rewriting", "linalg"))
    from gradedcy import RightModule, cli, findim
    assert RightModule is findim.RightModule and cli.main is main
    names = {}
    exec("from gradedcy import *", names)
    assert set(gradedcy.__all__) <= set(names)
    with pytest.raises(AttributeError):
        gradedcy.no_such_name


def test_readme_cli_block_names_every_option():
    """Every option of every subcommand (and of gradedcy itself) appears
    in the README's CLI block on that subcommand's lines: --cap was
    missing from six of them."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text().split("## CLI\n\n```\n")[1].split("```")[0]
    named, command = {}, None
    for line in block.splitlines():
        if not line.startswith("        "):
            command = line.split()[0] if line.startswith("  ") else None
        named.setdefault(command, set()).update(
            re.findall(r"--[a-z-]+", line))
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    missing = [(command, opt)
               for command, p in [(None, parser), *sub.choices.items()]
               for act in p._actions for opt in act.option_strings
               if opt not in ("-h", "--help")
               and opt not in named.get(command, ())]
    assert missing == []
    assert set(named) == {None, *sub.choices}


def test_knit_and_verify_root():
    code, out, _ = run("knit", DATA / "kronecker.quiver", "--steps", "4")
    assert code == 0 and "mesh additivity: True" in out
    code, out, _ = run("--format", "dot", "knit", DATA / "a2.quiver",
                       "--steps", "4")
    assert code == 0 and out.startswith("digraph")
    code, out, _ = run("verify-root", DATA / "k_xy.pres", "--a", "2",
                       "--steps", "10")
    assert code == 0 and "PASS" in out


def test_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.pres"
    bad.write_text("[vertices]\nP\n[arrows]\nx P P nope\n")
    code, _, err = run("dims", bad)
    assert code == 2
    assert "bad.pres" in err and "4" in err


def test_missing_file_exit_2():
    code, _, err = run("dims", "no_such_file.pres")
    assert code == 2


def test_dimer_validate_failure_exit_1():
    code, _, err = run("dimer", "validate", DATA / "theta.dimer")
    assert code == 1 and "NotTorus" in err


def test_verify_root_json_orbit():
    code, out, _ = run("--format", "json", "verify-root",
                       DATA / "k_xy.pres", "--a", "2", "--steps", "6")
    data = json.loads(out)
    assert data["passed"] and data["orbit"]["R(-0)"] == [1, 2]


def test_verify_root_reads_its_table_off_the_checked_orbit(monkeypatch):
    """The orbit table and A's Cartan matrix come from the one orbit
    verify_root built: one completion at cap 28 and its probe at 30.
    Building A and counting the paths of its Gabriel quiver added 28, 2
    and 30, and a second orbit would add 28, 30."""
    from gradedcy import rewriting

    caps, complete = [], rewriting.truncated_rewriting

    def counting(pres, cap):
        caps.append(cap)
        return complete(pres, cap)

    monkeypatch.setattr(rewriting, "truncated_rewriting", counting)
    code, out, _ = run("--format", "json", "verify-root",
                       DATA / "k_xy.pres", "--a", "2")
    assert code == 0 and json.loads(out)["orbit"]["R(-7)"] == [8, 9]
    assert caps == [28, 30]


@pytest.mark.parametrize("name,a", [("k_x.pres", "1"), ("k_xyz.pres", "3")])
def test_verify_root_passes_off_cy_dimension_2(name, a):
    """k[x] (1-CY) and k[x,y,z] (3-CY, the Beilinson algebra of P^2 as
    A) exited 1: the prediction left out the sign (-1)^(d+1) of nu_d^-1,
    and for k[x,y,z] the Cartan matrix counted the paths of A's Gabriel
    quiver, which is not A's Cartan matrix when A has relations."""
    code, out, err = run("verify-root", DATA / name, "--a", a)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == \
        "translation-root check over 20 steps: PASS"


def test_verify_root_refuses_what_it_cannot_check(tmp_path):
    """The orbit's vectors are totals over vertex pairs, so a second
    vertex is refused (it compared a 4-entry prediction with a 2-entry
    vector); and the sign needs the CY dimension, so a presentation
    without [cy] is refused as cy-check refuses it (it passed as 2-CY)."""
    two = tmp_path / "two.pres"
    two.write_text("[vertices]\nP\nQ\n[arrows]\nx P Q -1\ny Q P -1\n"
                   "[cy]\n2 2\n")
    assert run("verify-root", two, "--a", "2") == (
        1, "", "error: NotFree: the root check needs a single vertex, "
               "not 2\n")
    bare = tmp_path / "bare.pres"
    bare.write_text((DATA / "k_xy.pres").read_text().split("[cy]")[0])
    assert run("verify-root", bare, "--a", "2") == (
        2, "", "error: presentation lacks a [cy] section\n")


def test_verify_root_loads_no_algebra_modules():
    """verify-root reads A's Cartan matrix off its orbit, so neither A
    nor its Gabriel quiver is built and their modules stay unloaded."""
    src = str(Path(gradedcy.__file__).resolve().parent.parent)
    probe = (
        "import io, sys, contextlib\n"
        "from gradedcy import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['verify-root', {str(DATA / 'k_xy.pres')!r},"
        " '--a', '2']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('gradedcy.')))\n")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    loaded = {m.split(".")[1] for m in ast.literal_eval(out)}
    assert not loaded & {"normalwords", "slice_algebras", "fdalgebra",
                         "findim"}, loaded


def test_dot_outputs():
    code, out, _ = run("--format", "dot", "build-abc", DATA / "k_xy.pres",
                       "--a", "2")
    assert code == 0 and out.startswith("digraph B")
    code, out, _ = run("--format", "dot", "dimer", "qp",
                       DATA / "four_face.dimer")
    assert code == 0 and out.startswith("digraph Q")
    code, out, _ = run("--format", "dot", "qhat", DATA / "kronecker.quiver",
                       "--n", "2")
    assert code == 0 and out.startswith("digraph Qhat")
    code, out, _ = run("--format", "dot", "corpi", DATA / "kronecker.quiver",
                       "--n", "1")
    assert code == 0 and out.startswith("digraph B")
    code, out, _ = run("--format", "dot", "knit", DATA / "kronecker.quiver",
                       "--steps", "4")
    assert code == 0 and out.startswith("digraph knit")


def _commands():
    """Every subcommand, with each dimer action as "dimer ACTION"."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    actions = next(a for a in sub.choices["dimer"]._actions
                   if a.dest == "action").choices
    return [name for name in sub.choices if name != "dimer"] + [
        f"dimer {a}" for a in actions]


# an input each renderer draws, and the flags the other commands require
DOT_RUNS = {"build-abc": ["k_xy.pres", "--a", "2"],
            "qhat": ["kronecker.quiver", "--n", "2"],
            "corpi": ["kronecker.quiver", "--n", "1"],
            "knit": ["kronecker.quiver", "--steps", "4"],
            "dimer qp": ["four_face.dimer"]}
REQUIRED_FLAGS = {"tilde": ["--a", "1", "--n", "1"],
                  "ig-check": ["--a", "1", "--d", "0"],
                  "verify-root": ["--a", "1"]}


@pytest.mark.parametrize("name", _commands())
def test_format_dot_is_drawn_or_refused_before_any_work(name, tmp_path):
    """The five renderers draw a graph; every other subcommand and dimer
    action exits 2 naming text and json, before it opens its input (the
    path given does not exist): it used to print its text report."""
    if name in DOT_RENDERERS:
        first, *flags = DOT_RUNS[name]
        code, out, err = run("--format", "dot", *name.split(),
                             DATA / first, *flags)
        assert (code, err) == (0, "") and out.startswith("digraph ")
        assert set(DOT_RUNS) == set(DOT_RENDERERS)
    else:
        assert run("--format", "dot", *name.split(), tmp_path / "missing",
                   *REQUIRED_FLAGS.get(name, [])) == (
            2, "", f"error: {name} draws no graph: use --format text or "
                   f"json\n")


@pytest.mark.parametrize("old,new,line,message", [
    ("[map 1]", "[map 0]", 10, "[map 0] names no map"),
    ("1 0 x#1 - 1#x", "1 0 x#1 - 1#x\n[map 3]\n0 0 x#1 - 1#x", 17,
     "map indices out of range"),
    ("1 0 x#1 - 1#x", "1 0 x#1 - 1#x\n[map 3]", 16,
     "[map 3] is past the last term [term 2]"),
    ("0 0 x#1 - 1#x", "-1 0 x#1 - 1#x", 11, "got -1"),
    ("0 0 x#1 - 1#x", "a 0 x#1 - 1#x", 11, "got a"),
    ("P P 0", "P P zero", 4, "degree must be an integer, got zero"),
    ("0 0 x#1 - 1#x", "0 0 1/0*x#1 - 1#x", 11, "divides by zero"),
])
def test_complex_file_numbers_are_checked(tmp_path, old, new, line, message):
    """Map indices, summand indices and degrees that the file format
    cannot mean are refused with the file and line, exit code 2."""
    text = (DATA / "koszul_xy.cpx").read_text(encoding="utf-8")
    path = tmp_path / "bad.cpx"
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    code, out, err = run("cy-check", DATA / "k_xy.pres", "--twist", "sigma",
                         "--resolution", path)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}:{line}: ") and message in err, err


@pytest.mark.parametrize("old,new,line,message", [
    # a pair split over two lines: the last line used to win silently
    ("0 1 y#1 - 1#y", "0 1 y#1\n0 1 - 1#y", 13,
     "[map 1] gives entry 0 1 again, first on line 12"),
    # an entry one degree too deep: used to end in an IndexError traceback
    ("1 0 x#1 - 1#x", "1 0 x*y#1 - 1#x", 15,
     "from T2[0] (degree -2) to T1[1] (degree -1) has |u| + |v| = -2"),
    # a summand one degree too deep: used to get a FAIL verdict
    ("P P -2", "P P -3", 14,
     "from T2[0] (degree -3) to T1[0] (degree -1) has |u| + |v| = -1"),
])
def test_complex_file_entries_are_checked(tmp_path, old, new, line, message):
    """Each target-source pair is given once per map, and every entry keeps
    degrees (|u| + |v| = source minus target generator degree); a file
    that breaks either rule is refused with the file and line, exit 2."""
    text = (DATA / "koszul_xy.cpx").read_text(encoding="utf-8")
    assert text.count(old) == 1
    path = tmp_path / "bad.cpx"
    path.write_text(text.replace(old, new), encoding="utf-8")
    code, out, err = run("cy-check", DATA / "k_xy.pres", "--twist", "sigma",
                         "--resolution", path, "--window=-4..0")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}:{line}: ") and message in err, err


@pytest.mark.parametrize("entry,relation,message", [
    ("z#1 - 1#x", "z*y - y*x", "unknown arrow 'z'"),
    ("x*2#1 - 1#x", "x*2*y - y*x", "scalar 2 must precede arrow names"),
    ("1/0*x#1 - 1#x", "1/0*x*y - y*x", "coefficient 1/0 divides by zero"),
    ("x - 1#x", None, "entry term needs lpath # rpath"),
])
def test_complex_entries_use_the_relation_term_grammar(entry, relation,
                                                       message):
    """Each side of an entry's '#' is read as a relation term, so a fault
    in it is refused with the file, the line and the message the
    relation reader gives for the same fault."""
    cpx = (DATA / "koszul_xy.cpx").read_text(encoding="utf-8")
    pres_text = (DATA / "k_xy.pres").read_text(encoding="utf-8")
    with pytest.raises(ParseError) as err:
        parse_complex(cpx.replace("0 0 x#1 - 1#x", f"0 0 {entry}"),
                      parse_presentation(pres_text), filename="bad.cpx")
    assert str(err.value) == f"bad.cpx:11: {message}"
    if relation is not None:
        with pytest.raises(ParseError) as err:
            parse_presentation(pres_text.replace("x*y - y*x", relation),
                               filename="bad.pres")
        assert str(err.value) == f"bad.pres:8: {message}"


def test_complex_entry_scalars_may_stand_on_either_side():
    """A scalar on the right of '#' multiplies the entry like one on the
    left, and a side without arrow names is the lazy path."""
    pres = load_presentation(DATA / "k_xy.pres")
    head = "[term 0]\nP P 0\n[term 1]\nP P -2\nP P -1\n[map 1]\n"
    right, left = (parse_complex(head + body, pres).diffs for body in (
        "0 0 x # 2*y\n0 1 1/2 # x\n", "0 0 2*x # y\n0 1 1/2*1 # x\n"))
    assert right == left
    ctx = pres.ctx
    assert right == [{(0, 0): [(2, ctx.arrow_path("x"), ctx.arrow_path("y"))],
                      (0, 1): [(Fraction(1, 2), ctx.lazy("P"),
                                ctx.arrow_path("x"))]}]


@pytest.mark.parametrize("relation", ["x*y - y*x", "x*y"])
def test_cy_check_reads_cy_before_the_resolution(tmp_path, relation):
    """Without [cy] cy-check has no verdict to give, and says so before it
    builds a resolution: the x*y copy, which has no built-in resolution,
    used to exit 1 with NotFree."""
    path = tmp_path / "bare.pres"
    text = (DATA / "k_xy.pres").read_text(encoding="utf-8").split("[cy]")[0]
    assert text.count("x*y - y*x") == 1
    path.write_text(text.replace("x*y - y*x", relation), encoding="utf-8")
    assert run("cy-check", path) == (
        2, "", "error: presentation lacks a [cy] section\n")


@pytest.mark.parametrize("relation,resolution", [("x*y", False),
                                                 ("x*y - y*x", True)])
def test_cy_check_twist_file_reads_twist_before_the_resolution(
        tmp_path, relation, resolution):
    """--twist file without [twist] is refused before a resolution is
    built or read: the x*y copy, which has no built-in resolution, used
    to exit 1 with NotFree, and a missing --resolution file exit 2 with
    FileNotFoundError."""
    path = tmp_path / "k_xy.pres"
    text = (DATA / "k_xy.pres").read_text(encoding="utf-8")
    assert text.count("x*y - y*x") == 1 and "[twist]" not in text
    path.write_text(text.replace("x*y - y*x", relation), encoding="utf-8")
    extra = ["--resolution", tmp_path / "missing.cpx"] if resolution else []
    assert run("cy-check", path, "--twist", "file", *extra) == (
        2, "", "error: presentation has no [twist] section\n")


@pytest.mark.parametrize("old,new,line,message", [
    ("2 2", "2 2\n[twist]\nzz -1", 12, "twist names unknown arrow zz"),
    ("2 2", "2 2\n[twist]\nx abc", 12, "bad twist scalar 'abc'"),
    ("2 2", "2 2\n[twist]\nx 0", 12, "twist scalar for x is zero"),
    ("2 2", "2 2\n[twist]\nx 1/0", 12, "bad twist scalar '1/0'"),
    ("2 2", "3 x", 10, "cy values must be integers"),
    ("P\n", "P\nP\n", 4, "vertex P declared twice"),
    ("y P P -1", "y P P -1\nx P P -1", 7, "arrow x declared twice"),
    ("y P P -1", "y P P -1\nz P Q -1", 7, "arrow z names unknown vertex Q"),
    ("x*y - y*x", "1/0*x*y - y*x", 8, "coefficient 1/0 divides by zero"),
    ("2 2", "2 2\n[twist]\nx -1\ny -1\nx 1", 14,
     "[twist] gives arrow x again, first on line 12"),
    ("2 2", "2 2\n[cy]\n3 2", 12,
     "[cy] gives the CY data again, first on line 10"),
])
def test_presentation_file_faults_name_the_line(tmp_path, old, new, line,
                                                message):
    """Malformed presentation entries that used to end in a traceback
    (exit 1), or that silently replaced an earlier line (a twist scalar
    or [cy] line given twice), are refused with the file and line, exit
    2."""
    text = (DATA / "k_xy.pres").read_text(encoding="utf-8")
    assert text.count(old) == 1
    path = tmp_path / "bad.pres"
    path.write_text(text.replace(old, new), encoding="utf-8")
    code, out, err = run("build-abc", path, "--a", "1")
    assert (code, out) == (2, "")
    assert err == f"error: {path}:{line}: {message}\n"


def test_cy_check_twist_file_on_skew_2_is_the_sign_twist():
    """skew_2.pres declares x1, x2 -> -x1, -x2, which --twist file reads as
    the dual's twist itself: the same bytes as --twist sigma, exit 1 (the
    identity twist passes)."""
    file_run = run("cy-check", DATA / "skew_2.pres", "--twist", "file")
    assert file_run[0] == 1
    assert file_run == run("cy-check", DATA / "skew_2.pres", "--twist",
                           "sigma")


def test_complex_file_entries_meet_the_summands_vertices(tmp_path):
    """An entry whose left path does not start at the source summand's
    left vertex is refused with the file and line, exit 2; the entry with
    the arrow on the right side is accepted (the verdict itself is only
    implemented for one vertex)."""
    pres = tmp_path / "two.pres"
    pres.write_text("[vertices]\nP Q\n[arrows]\na P Q -1\n[cy]\n2 1\n",
                    encoding="utf-8")
    path = tmp_path / "bad.cpx"
    path.write_text("[term 0]\nP P 0\n[term 1]\nP Q -1\n[map 1]\n0 0 a#1\n",
                    encoding="utf-8")
    code, out, err = run("cy-check", pres, "--resolution", path)
    assert (code, out) == (2, "")
    assert err == f"error: {path}:6: entry a#e_P from T1[0] (P, Q) to T0[0] " \
        "(P, P) has u from P to Q and v from P to P, not u from P to P and " \
        "v from P to Q\n"
    text = path.read_text(encoding="utf-8").replace("a#1", "1#a")
    parse_complex(text, load_presentation(pres))


def test_cy_check_refuses_a_resolution_that_is_not_a_complex(tmp_path):
    """One sign flipped in [map 2]: the verdict used to print FAIL with
    every degree row ok; it now names the summands where d o d is not 0."""
    text = (DATA / "koszul_xy.cpx").read_text(encoding="utf-8")
    path = tmp_path / "bad.cpx"
    path.write_text(text.replace("0 0 -y#1 + 1#y", "0 0 y#1 + 1#y"),
                    encoding="utf-8")
    code, out, err = run("cy-check", DATA / "k_xy.pres", "--twist", "sigma",
                         "--resolution", path, "--window=-4..0")
    assert (code, out) == (1, "")
    assert err == f"error: NotComplex: {path}: d o d nonzero from summand " \
        "T2[0] to T0[0]\n"


def test_cy_check_names_the_cap_for_long_entries(tmp_path):
    path = tmp_path / "long.cpx"
    path.write_text("[term 0]\nP P 0\n[term 1]\nP P -3\n[term 2]\nP P -6\n"
                    "[map 1]\n0 0 x*x*x#1\n[map 2]\n0 0 y*y*y#1\n",
                    encoding="utf-8")
    code, out, err = run("cy-check", DATA / "k_xy.pres", "--twist", "sigma",
                         "--resolution", path, "--window=-2..0", "--cap", "4")
    assert (code, out) == (1, "")
    assert err.startswith("error: CapTooSmall: ") and "--cap 4" in err, err


@pytest.mark.parametrize("name,cap,window,longest", [
    ("skew_3.pres", 1, "--window=-3..0", 3),
    ("k_xyz.pres", 2, "--window=-5..0", 5),
])
def test_cy_check_refuses_a_cap_below_the_window(monkeypatch, name, cap,
                                                 window, longest):
    """With every arrow of negative degree, an explicit --cap shorter than
    the longest word of the window's lowest degree is refused before any
    completion runs, naming the cap the window needs."""
    from gradedcy import rewriting

    def refuse(*args, **kwargs):
        raise AssertionError("completion ran before the cap check")

    monkeypatch.setattr(rewriting, "truncated_rewriting", refuse)
    code, out, err = run("cy-check", DATA / name, "--twist", "id",
                         "--cap", cap, window)
    assert (code, out) == (1, "")
    assert err.startswith("error: CapTooSmall: ") and f"--cap {cap} " in err
    assert f"--cap {longest} or more" in err, err


def test_tracer_wraps_every_name_it_names():
    """bench/tracer.py wraps package functions by name; renaming or
    removing one of them fails here, not only in traced benchmark runs."""
    root = Path(__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c",
         "from tracer import Tracer, install; install(Tracer())"],
        cwd=root, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(root / "bench"), str(root / "src")])})
    assert out.returncode == 0, out.stderr


def _references(node):
    """The names, attribute names, imported names and identifier-like
    string constants under an AST node (bench/tracer.py wraps package
    functions by their names as strings)."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.rsplit(".", 1)[-1]
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and n.value.isidentifier():
            yield n.value


def test_every_definition_has_a_caller_outside_the_tests():
    """Every function, method and class defined in src/ (dunders aside)
    is referenced in src/, demos/ or bench/ somewhere other than its own
    body, so that the package holds no code that only the tests run;
    checks and accessors that only tests call live in tests/helpers.py.
    A reference is by name only, so a name shared with another
    attribute passes."""
    root = Path(__file__).resolve().parent.parent
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in ("src", "demos", "bench")
             for path in sorted((root / folder).rglob("*.py"))}
    seen = Counter(r for tree in trees.values() for r in _references(tree))
    unused = [f"{path.name}:{node.name}"
              for path, tree in trees.items()
              if path.is_relative_to(root / "src")
              for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef))
              and not (node.name.startswith("__")
                       and node.name.endswith("__"))
              and seen[node.name] == sum(r == node.name
                                         for r in _references(node))]
    assert not unused, f"only the tests call {unused}"


def test_skew_resolution_file():
    code, _, _ = run("cy-check", DATA / "skew_2.pres", "--twist", "id",
                     "--resolution", DATA / "skew2.cpx")
    assert code == 0
    code, _, _ = run("cy-check", DATA / "skew_2.pres", "--twist", "sigma",
                     "--resolution", DATA / "skew2.cpx")
    assert code == 1


def test_dimer_consistency_is_the_same_under_python_O():
    """The exact checks behind `dimer consistency` are explicit raises, so
    `python -O`, which strips assert statements, prints the same bytes."""
    src = str(Path(gradedcy.__file__).resolve().parent.parent)

    def consistency(*flags):
        return subprocess.run(
            [sys.executable, *flags, "-m", "gradedcy.cli", "--format",
             "json", "dimer", "consistency", str(DATA / "hexagonal.dimer")],
            capture_output=True, check=True,
            env={**os.environ, "PYTHONPATH": src}).stdout

    assert consistency("-O") == consistency()


@pytest.mark.parametrize("argv", [
    ["--format", "json", "verify-root", "k_xy.pres", "--a", "2"],
    ["dimer", "matchings", "hexagonal.dimer"],
], ids=["emit", "matchings-writer"])
def test_a_closed_pipe_stops_quietly(argv):
    """A reader that is gone before the child writes (as `| head` can be)
    ends the run with exit 141 and no traceback, both for a report
    printed through `_emit` and for the block writer of `dimer
    matchings`."""
    src = str(Path(gradedcy.__file__).resolve().parent.parent)
    argv = [str(DATA / a) if a.endswith((".pres", ".dimer")) else a
            for a in argv]
    read, write = os.pipe()
    os.close(read)
    try:
        out = subprocess.run(
            [sys.executable, "-m", "gradedcy.cli", *argv], stdout=write,
            stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": src})
    finally:
        os.close(write)
    assert "Traceback" not in out.stderr
    assert out.stderr == ""
    assert out.returncode == 141


def _honeycomb_file(tmp_path, m, n):
    path = tmp_path / f"honeycomb_{m}x{n}.dimer"
    path.write_text(dimer_text(honeycomb_torus(m, n)), encoding="utf-8")
    return path


def test_dimer_matchings_prints_what_json_dumps_printed(tmp_path):
    """`dimer matchings` writes to whatever sys.stdout is at call time
    (here a StringIO) the bytes print(json.dumps(..., indent=2,
    sort_keys=True)) gave, in either format."""
    from gradedcy.dimer import load_dimer, perfect_matchings

    paths = [DATA / f"{name}.dimer" for name in
             ("digon", "four_face", "hexagonal", "pendant", "theta")]
    paths.append(_honeycomb_file(tmp_path, 6, 4))
    for path in paths:
        want = matchings_json(*perfect_matchings(load_dimer(path))) + "\n"
        for fmt in ("text", "json"):
            assert run("--format", fmt, "dimer", "matchings", path) == \
                (0, want, "")
    assert json.loads(want)["count"] == 5793


# Starts one CLI child and prints its exit code and ru_maxrss (KB).  The
# kernel counts the forking process's RSS in a child's ru_maxrss, so the
# children are started from this small process and not from the test
# process, which can be larger than they are.
RSS_LAUNCHER = """
import os, subprocess, sys
with open(sys.argv[1], "w") as out:
    proc = subprocess.Popen([sys.executable, "-m", "gradedcy.cli",
                             *sys.argv[2:]], stdin=subprocess.DEVNULL,
                            stdout=out)
    _, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _cli_peak_mb(out, *args):
    """Run the CLI in a child process; (exit code, its max RSS in MB)."""
    src = str(Path(gradedcy.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    res = subprocess.run(
        [sys.executable, "-c", RSS_LAUNCHER, str(out), *map(str, args)],
        capture_output=True, text=True, check=True, env=env)
    code, rss = map(int, res.stdout.split())
    return code, rss / 1024


def test_dimer_matchings_memory_stays_near_validate(tmp_path):
    """Listing the 5 793 matchings of the 6 x 4 honeycomb costs less than
    6 MB of peak RSS over validating the same file: both children load
    the same modules, so the interpreter's own size cancels out."""
    path, out = _honeycomb_file(tmp_path, 6, 4), tmp_path / "out"
    code, validate = _cli_peak_mb(out, "dimer", "validate", path)
    assert code == 0
    code, matchings = _cli_peak_mb(out, "dimer", "matchings", path)
    assert code == 0
    assert json.loads(out.read_text())["count"] == 5793
    assert matchings - validate < 6, (validate, matchings)


def test_dimer_commands_leave_the_algebra_stack_unloaded():
    """validate, qp, consistency and matchings never import the rewriting
    and complex modules (only `dimer jacobian` needs them)."""
    src = str(Path(gradedcy.__file__).resolve().parent.parent)
    path = str(DATA / "four_face.dimer")
    probe = (
        "import io, sys, contextlib\n"
        "from gradedcy import cli\n"
        "for sub in ('validate', 'qp', 'consistency', 'matchings'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        assert cli.main(['dimer', sub, {path!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('gradedcy')))\n")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert "'gradedcy.dimer'" in out
    assert "gradedcy.rewriting" not in out and \
        "gradedcy.complexes" not in out, out


# the commands of bench/workloads.py at their smoke size, and the gradedcy
# modules each loads besides cli, errors and quiver
BENCHMARK_IMPORTS = [
    (["dims", "skew_4.pres", "--max-degree", "6"], ["rewriting"]),
    (["ig-check", "k_xy.pres", "--a", "2", "--d", "1"],
     ["fdalgebra", "findim", "linalg", "normalwords", "rewriting",
      "slice_algebras"]),
    (["cy-check", "k_xyz.pres", "--twist", "id", "--window=-6..0"],
     ["complexes", "duality", "linalg", "normalwords", "rewriting"]),
    (["dimer", "consistency", "hexagonal.dimer"], ["dimer", "simplex"]),
    (["dimer", "matchings", "hexagonal.dimer"], ["dimer", "simplex"]),
]


@pytest.mark.parametrize("argv,extra", BENCHMARK_IMPORTS,
                         ids=["dims", "ig-check", "cy-check",
                              "dimer consistency", "dimer matchings"])
def test_benchmark_commands_import_only_their_modules(argv, extra):
    """Each command of bench/workloads.py (at its smoke size) loads
    exactly these gradedcy modules besides cli, errors and quiver.  The
    benchmark runs with PYTHONDONTWRITEBYTECODE=1, so each child compiles
    every module it imports and one more module shows in peak_rss_mb."""
    src = str(Path(gradedcy.__file__).resolve().parent.parent)
    argv = ["--format", "json"] + [
        str(DATA / a) if a.endswith((".pres", ".dimer")) else a
        for a in argv]
    probe = (
        "import io, sys, contextlib\n"
        "from gradedcy import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
        "print(sorted(m[9:] for m in sys.modules\n"
        "             if m.startswith('gradedcy.')))\n")
    out = subprocess.run([sys.executable, "-S", "-c", probe],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == f"{sorted(['cli', 'errors', 'quiver'] + extra)}\n"


def test_benchmark_modules_fit_the_parsers_first_token_buffer():
    """Every module a benchmark command imports (the package __init__
    included) is at most 4 096 tokens as `tokenize` counts them, comments
    and the encoding token included.  CPython's parser grows its token
    buffer past 4 096 tokens, and with PYTHONDONTWRITEBYTECODE=1, as the
    benchmark runs, every child compiles every module it imports, so a
    longer module raises each child's peak memory."""
    names = {"__init__", "cli", "errors", "quiver"}.union(
        *(extra for _, extra in BENCHMARK_IMPORTS))
    package = Path(gradedcy.__file__).resolve().parent
    sizes = {}
    for name in sorted(names):
        with open(package / f"{name}.py", "rb") as fh:
            sizes[name] = sum(1 for _ in tokenize.tokenize(fh.readline))
    assert {n: k for n, k in sizes.items() if k > 4096} == {}


def test_no_command_imports_dataclasses_or_inspect():
    """Every subcommand and dimer action runs in one child started with
    -S, so that no site hook preloads anything; at exit `dataclasses`,
    `inspect` (which it pulls in, with `ast`, `dis` and `tokenize`, about
    1 MB of max-RSS) and `typing` are not loaded, nor `gradedcy.zerocycle`,
    which only a NonStabilizing error needs."""
    src = str(Path(gradedcy.__file__).resolve().parent.parent)
    pres, quiver, dimer = (str(DATA / name) for name in
                           ("k_xy.pres", "a2.quiver", "hexagonal.dimer"))
    commands = [
        ["dims", pres, "--max-degree", "2"],
        ["ig-check", pres, "--a", "2", "--d", "1"],
        ["cy-check", pres, "--twist", "sigma"],
        ["build-abc", pres, "--a", "1"],
        ["tilde", pres, "--a", "1", "--n", "2"],
        ["qhat", quiver, "--n", "2"],
        ["corpi", quiver, "--n", "2"],
        ["knit", quiver],
        ["verify-root", pres, "--a", "2", "--steps", "4"],
        *(["dimer", action, dimer] for action in
          ("validate", "qp", "consistency", "matchings", "jacobian")),
        ["--format", "json", "cy-check", pres, "--twist", "sigma"],
    ]
    probe = (
        "import io, sys, contextlib\n"
        "from gradedcy import cli\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print(sorted({'dataclasses', 'inspect', 'typing',\n"
        "              'gradedcy.zerocycle'} & set(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-S", "-c", probe],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "[]\n", out
