"""The benchmark's workloads: CLI commands, pinned answers and oracles.

Each workload is a list of `gradedcy.cli` commands run back to back.  Every
command carries a check that takes the parsed JSON answer and returns None
or the text of the mismatch.  Where the answer has a closed form the check
computes it independently (Hilbert series by integer recurrence, dimer
charges by substitution, matchings by a separate count); the rest is
pinned.

Why these four (see README.md for the measurements behind them):

- gorenstein: `findim` + `linalg` do almost all the work (ROADMAP item 2).
- graded_pieces: `rewriting` normal-word enumeration does all the work,
  `findim`/`linalg` none (ROADMAP item 3).
- twisted_duality: `rewriting.reduce` and many small `SparseEliminator`
  ranks -- the other use of the two layers the first two workloads share.
- dimer_lattice: the only workload that reaches `simplex` and `dimer`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from math import comb

from lattice import Lattice

NAMES = ("gorenstein", "graded_pieces", "twisted_duality", "dimer_lattice")


@dataclass
class Command:
    argv: list                  # arguments after `python -m gradedcy.cli`
    check: object               # answer -> None | mismatch text
    inputs: list                # (kind, path) parsed at start-up
    fingerprint: dict = field(default_factory=dict)  # pinned traced facts


@dataclass
class Workload:
    commands: list
    prechecks: list = field(default_factory=list)  # untimed, before timing


def series(n, count):
    """Coefficients of 1/(1 - n t + t^2): the Hilbert series of one
    generic quadratic relation in n degree -1 variables."""
    out = [1, n]
    while len(out) < count:
        out.append(n * out[-1] - out[-2])
    return out[:count]


def _check_dims(expected):
    def check(answer):
        want = {str(-k): {"P->P": d, "total": d}
                for k, d in enumerate(expected)}
        if answer != want:
            bad = sorted(k for k in want if answer.get(k) != want[k])
            return f"dims: degrees {bad} differ from the series"
        return None
    return check


def _check_cy(shift, arrows, expected):
    def check(answer):
        # check_twisted_cy computes degrees down to -2 directly
        rows = [{"degree": -k, "expected": d, "computed": d,
                 "method": "direct" if k <= 2 else "certified"}
                for k, d in enumerate(expected)]
        want = {"passed": True, "shift": shift, "rows": rows,
                "action_ok": {a: True for a in arrows}}
        if answer != want:
            bad = [k for k in want if answer.get(k) != want[k]]
            return f"cy-check: {bad} differ from the pinned verdict"
        return None
    return check


def _check_equal(label, want):
    def check(answer):
        return None if answer == want else f"{label}: got {answer}"
    return check


def _pres(path):
    return [("presentation", path)]


def build(name, seed, smoke, tmpdir):
    """The commands of one workload.  Full inputs are fixed; only the
    generated dimer depends on `seed`, and only through its labels."""
    if name == "gorenstein":
        if smoke:
            f, a, d, res = "data/k_xy.pres", 2, 1, [[12, 5], [28, 7]]
        else:
            f, a, d, res = "data/skew_3.pres", 2, 1, [[20, 11], [145, 29]]
        want = {"holds": True, "inj_dim_left": d, "inj_dim_right": d, "d": d}
        return Workload([Command(
            ["ig-check", f, "--a", str(a), "--d", str(d)],
            _check_equal("ig-check", want), _pres(f),
            # (module dim, cover rank) per syzygy step, right side then left
            {"findim.resolution": [res, res]})])
    if name == "graded_pieces":
        top = 6 if smoke else 9
        return Workload([Command(
            ["dims", "data/skew_4.pres", "--max-degree", str(top)],
            _check_dims(series(4, top + 1)), _pres("data/skew_4.pres"))])
    if name == "twisted_duality":
        # the window is spelled with '=': argparse reads a bare '-9..0'
        # as an option and the CLI exits 2
        if smoke:
            f, top, shift, arrows = "data/k_xyz.pres", 6, 6, "xyz"
            expected = [comb(k + 2, 2) for k in range(top + 1)]
        else:
            f, top, shift, arrows = "data/skew_3.pres", 9, 4, \
                ("x1", "x2", "x3")
            expected = series(3, top + 1)
        return Workload([Command(
            ["cy-check", f, "--twist", "id", f"--window=-{top}..0"],
            _check_cy(shift, arrows, expected), _pres(f))])
    if name == "dimer_lattice":
        sizes = [(3, 3), (3, 3)] if smoke else [(6, 6), (6, 4)]
        lattices = [Lattice(m, n, seed) for m, n in sizes]
        paths = []
        for lat in lattices:
            path = os.path.join(tmpdir, f"honeycomb_{lat.m}x{lat.n}.dimer")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(lat.text())
            paths.append(path)
        (big, small), (big_path, small_path) = lattices, paths
        return Workload(
            [Command(["dimer", "consistency", big_path], big.check_charge,
                     [("dimer", big_path)]),
             Command(["dimer", "matchings", small_path],
                     small.check_matchings, [("dimer", small_path)])],
            prechecks=[Command(["dimer", "validate", p], lat.check_validate,
                               [("dimer", p)])
                       for lat, p in zip(lattices, paths)])
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
