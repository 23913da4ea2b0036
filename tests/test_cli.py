import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import gradedcy
from gradedcy.cli import main
from gradedcy.complexes import parse_complex
from gradedcy.quiver import load_presentation

from helpers import DATA, dimer_text, honeycomb_torus, matchings_json


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


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


def test_dims_explicit_cap_zero_is_used():
    code, out, err = run("dims", DATA / "k_x.pres", "--cap", "0",
                         "--max-degree", "2")
    assert code == 1 and out == ""
    assert "NonStabilizing" in err and "--cap 0" in err


def test_negative_cap_rejected_at_parse_time():
    with pytest.raises(SystemExit) as exc, redirect_stderr(io.StringIO()):
        main(["dims", str(DATA / "k_x.pres"), "--cap", "-1"])
    assert exc.value.code == 2


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
    """The orbit table comes from the orbit verify_root built: the orbit
    and A complete their systems at cap 28 and probe at 30, and no second
    orbit completes two more (the caps were 28, 28, 30, 30, 28, 30)."""
    from gradedcy import rewriting

    caps, complete = [], rewriting.truncated_rewriting

    def counting(pres, cap):
        caps.append(cap)
        return complete(pres, cap)

    monkeypatch.setattr(rewriting, "truncated_rewriting", counting)
    code, out, _ = run("--format", "json", "verify-root",
                       DATA / "k_xy.pres", "--a", "2")
    assert code == 0 and json.loads(out)["orbit"]["R(-7)"] == [8, 9]
    assert caps == [28, 28, 30, 30]


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
])
def test_presentation_file_faults_name_the_line(tmp_path, old, new, line,
                                                message):
    """Malformed presentation entries that used to end in a traceback
    (exit 1) are refused with the file and line, exit 2."""
    text = (DATA / "k_xy.pres").read_text(encoding="utf-8")
    assert text.count(old) == 1
    path = tmp_path / "bad.pres"
    path.write_text(text.replace(old, new), encoding="utf-8")
    code, out, err = run("build-abc", path, "--a", "1")
    assert (code, out) == (2, "")
    assert err == f"error: {path}:{line}: {message}\n"


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
