"""One `gradedcy.cli` command, run in-process with layer spans.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python bench/tracer.py ig-check data/skew_3.pres --a 2 --d 1

The script runs ``gradedcy.cli.main`` itself, with spans recorded around
each layer's public calls from outside the program: each wrapped function
or method is replaced, in this process only, by a wrapper that records
(name, parent, start, end).  Nothing under ``src/`` changes.  The CLI
imports its callees at call time, or binds them as module globals that the
wrapping also replaces, so every call it makes is traced.

It prints one JSON object: ``answer`` (what the CLI prints with
``--format json``, parsed), ``layers`` (the per-layer metrics), ``fingerprint``
(traced facts the benchmark pins) and ``names`` (calls, total and self
time per span name).
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from array import array
from collections import Counter

from layers import COUNTERS, MAXIMA, SPAN_METRICS

from gradedcy import (cli, complexes, dimer, duality, fdalgebra, findim,
                      linalg, quiver, rewriting, simplex, slice_algebras)


class Tracer:
    """Spans kept in flat arrays (one entry per wrapped call)."""

    def __init__(self):
        self.names = []
        self.name_id = {}
        self.parent = array("l")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.outermost = array("b")   # no open ancestor has the same name
        self.stack = []
        self.open_names = Counter()
        self.counts = Counter()       # counters recorded at span boundaries
        self.maxima = Counter()
        self.fingerprint = {}
        self.open_rc = []             # RewriteContexts with basis() open

    def wrap(self, fn, name, after=None):
        """`name` is a string or a function of the call's arguments;
        `after(args, result)` records counters when the call returns."""
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            nm = name if isinstance(name, str) else name(args)
            nid = self.name_id.get(nm)
            if nid is None:
                nid = self.name_id[nm] = len(self.names)
                self.names.append(nm)
            sid = len(self.start)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.name.append(nid)
            self.outermost.append(not self.open_names[nm])
            self.end.append(0.0)
            self.stack.append(sid)
            self.open_names[nm] += 1
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                self.stack.pop()
                self.open_names[nm] -= 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def summary(self):
        """name -> [calls, total_s, self_s].  Total counts outermost spans
        only, so recursion is not counted twice; self time is a span's
        duration minus the durations of its direct children."""
        n = len(self.start)
        child = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        out = {nm: [0, 0.0, 0.0] for nm in self.names}
        for sid in range(n):
            row = out[self.names[self.name[sid]]]
            dur = self.end[sid] - self.start[sid]
            row[0] += 1
            if self.outermost[sid]:
                row[1] += dur
            row[2] += dur - child[sid]
        return out


def _patch(owner, attr, wrapper_for):
    """Replace owner.attr, and every gradedcy module global bound to the
    same function, by its wrapper."""
    original = getattr(owner, attr)
    wrapped = wrapper_for(original)
    setattr(owner, attr, wrapped)
    if not isinstance(owner, type):
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("gradedcy") and \
                    getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)


def install(tr: Tracer):
    """Wrap the public calls of every layer the four workloads reach."""
    c, m = tr.counts, tr.maxima

    def spans(owner, attr, name, after=None):
        _patch(owner, attr, lambda fn: tr.wrap(fn, name, after))

    spans(quiver, "load_presentation", "quiver.load")
    spans(dimer, "load_dimer", "dimer.load")

    # rewriting
    def rules(args, rs):
        c["rewriting.rules"] += len(rs.rules)

    spans(rewriting, "truncated_rewriting", "rewriting.completion", rules)

    def basis_wrapper(fn):
        inner = tr.wrap(fn, "rewriting.basis")

        def traced_basis(rc, *args, **kwargs):
            tr.open_rc.append(rc)
            try:
                return inner(rc, *args, **kwargs)
            finally:
                tr.open_rc.pop()
        return traced_basis

    _patch(rewriting.RewriteContext, "basis", basis_wrapper)

    def normal_paths_name(args):
        # the stability probe is the system whose cap is the open
        # context's cap + 2
        if tr.open_rc and args[0].cap == tr.open_rc[-1].cap + 2:
            return "rewriting.probe"
        return "rewriting.normal_paths"

    def words(args, out):
        c["rewriting.normal_words"] += len(out)

    spans(rewriting.RewritingSystem, "normal_paths", normal_paths_name, words)
    spans(rewriting.RewritingSystem, "reduce", "rewriting.reduce")

    # finite dimensional algebras
    spans(fdalgebra.FDAlgebra, "product", "fdalgebra.product")

    def dim_b(args, abc):
        m["slice_algebras.dim_B"] = max(m["slice_algebras.dim_B"], abc[2].dim)

    spans(slice_algebras, "build_AUB", "slice_algebras.build", dim_b)
    spans(findim, "radical", "findim.radical")
    spans(findim, "projective_cover_data", "findim.cover")
    spans(findim.RightModule, "act", "findim.act")

    sides = tr.fingerprint.setdefault("findim.resolution", [])

    def injdim_wrapper(fn):
        def new_side(alg, side, cap):
            sides.append([])
            return fn(alg, side, cap)
        return tr.wrap(new_side, "findim.injective_dimension")

    _patch(findim, "injective_dimension", injdim_wrapper)

    def step(args, out):
        module, (slots, _) = args[0], out
        sides[-1].append([module.dim, len(slots)])
        m["findim.max_module_dim"] = max(m["findim.max_module_dim"],
                                         module.dim)
        c["findim.cover_rank_total"] += len(slots)

    spans(findim, "syzygy", "findim.syzygy", step)

    # linear algebra
    def cols(args, out):
        if args[0]:
            m["linalg.nullspace_max_cols"] = max(
                m["linalg.nullspace_max_cols"], len(args[0][0]))

    spans(linalg, "nullspace_with_free", "linalg.nullspace", cols)

    def adds(args, out):
        c["linalg.eliminator_adds"] += 1

    spans(linalg.SparseEliminator, "add", "linalg.eliminator", adds)
    spans(linalg.SparseEliminator, "reduce", "linalg.eliminator")

    # complexes and the duality verdict
    spans(complexes.BimoduleComplex, "slice_basis", "complexes.slice_basis")
    spans(duality, "builtin_resolution", "duality.builtin_resolution")
    spans(duality, "exactness_probe", "duality.exactness_probe")
    spans(duality, "one_sided_complex", "duality.one_sided_complex")
    spans(duality, "slice_cohomology", "duality.slice_cohomology")
    spans(duality, "check_twisted_cy", "duality.verdict")

    # dimers and the simplex
    def lp_size(args, res):
        m["simplex.lp_rows"] = max(m["simplex.lp_rows"], len(args[0]))
        m["simplex.lp_cols"] = max(m["simplex.lp_cols"],
                                   len(args[0][0]) if args[0] else 0)

    spans(simplex, "solve_lp", "simplex.solve_lp", lp_size)
    spans(dimer.DimerModel, "validate", "dimer.validate")
    spans(dimer, "consistency_check", "dimer.consistency")

    def matchings(args, out):
        c["dimer.matchings"] += len(out[0])

    spans(dimer, "perfect_matchings", "dimer.matchings", matchings)


def layer_metrics(tr: Tracer):
    names = tr.summary()
    out = {}
    for metric, (span, col) in SPAN_METRICS.items():
        out[metric] = names[span][col] if span in names else 0
    for metric in COUNTERS:
        out[metric] = tr.counts[metric]
    for metric in MAXIMA:
        out[metric] = tr.maxima[metric]
    return out, names


def main(argv):
    tr = Tracer()
    install(tr)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tr.wrap(cli.main, "cli.main")(["--format", "json"] + argv)
    if code != 0:
        print(out.getvalue(), end="", file=sys.stderr)
        return code
    layers, names = layer_metrics(tr)
    print(json.dumps({"answer": json.loads(out.getvalue()), "layers": layers,
                      "fingerprint": tr.fingerprint, "names": names}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
