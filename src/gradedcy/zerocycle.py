"""A degree-0 cycle of normal words, for the NonStabilizing message.

Only the failure path of `CountContext` imports this module, so the
commands that count graded pieces do not compile it.
"""

from __future__ import annotations

from .quiver import Path


def degree_zero_cycle(rs):
    """A cycle c of degree-0 arrows all of whose powers are normal in
    `rs`, as a Path, or None.

    The nodes are (vertex, automaton state) pairs; a depth-first search
    along degree-0 arrows from each (vertex, start state) finds a node on
    its own trail, and the arrows read since then are c.  With w the
    normal word read up to that node, each c^k is a subword of the normal
    word w * c^k, so normal.  Conversely, if every power of a degree-0
    cycle c at v is normal, reading c, c^2, ... from (v, start) never
    meets a tip and the states repeat, so the search finds a cycle; when
    every arrow degree is <= 0 (a degree-0 cycle then has degree-0 arrows
    only) None means that no cycle of degree 0 has all its powers normal.
    """
    quiver = rs.ctx.quiver

    def steps(node):
        v, state = node
        for i in quiver.arrows_by_source[v]:
            a = quiver.arrows[i]
            st = None if a.degree else rs._step(state, i)
            if st is not None:
                yield i, (a.target, st)

    done = set()
    for root in ((v, ()) for v in quiver.vertices):
        if root in done:
            continue
        trail, word, todo = {root: 0}, [], [(root, steps(root))]
        while todo:
            node, out = todo[-1]
            for i, nxt in out:
                if nxt in trail:
                    return Path(nxt[0], tuple(word[trail[nxt]:]) + (i,))
                if nxt not in done:
                    trail[nxt] = len(todo)
                    word.append(i)
                    todo.append((nxt, steps(nxt)))
                    break
            else:
                todo.pop()
                del trail[node]
                done.add(node)
                if word:
                    word.pop()
    return None
