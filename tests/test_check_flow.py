"""Unit and property tests for the CFG/dataflow engine (repro.check.flow).

The concurrency rules (RPR011-RPR015) only hold if the underlying CFG
is structurally sound, so the properties here are deliberately blunt:
every statement owns a block, edges are symmetric, dominators form a
rooted partial order, and path enumeration is acyclic.
"""

from __future__ import annotations

import ast
import textwrap

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.flow import (
    build_cfg,
    dominators,
    enumerate_paths,
    function_nodes,
    run_forward,
    stmt_exprs,
)
from repro.check.flow import ForwardAnalysis


def cfg_of(src: str):
    tree = ast.parse(textwrap.dedent(src))
    func = next(function_nodes(tree))
    return build_cfg(func), func


def labels(cfg) -> dict[int, str]:
    return {
        b.index: (b.label or type(b.stmt).__name__) for b in cfg.blocks
    }


# -- structural unit tests -----------------------------------------------------


def test_if_diamond_joins_at_successor():
    cfg, func = cfg_of(
        """
        def f(c):
            if c:
                a = 1
            else:
                a = 2
            return a
        """
    )
    if_head = cfg.block_of[func.body[0]]
    ret = cfg.block_of[func.body[1]]
    then_blk = cfg.block_of[func.body[0].body[0]]
    else_blk = cfg.block_of[func.body[0].orelse[0]]
    assert set(cfg.blocks[if_head].succs) == {then_blk, else_blk}
    assert ret in cfg.blocks[then_blk].succs
    assert ret in cfg.blocks[else_blk].succs


def test_while_has_back_edge_and_exit_edge():
    cfg, func = cfg_of(
        """
        def f():
            while True:
                x = 1
            y = 2
        """
    )
    head = cfg.block_of[func.body[0]]
    body = cfg.block_of[func.body[0].body[0]]
    after = cfg.block_of[func.body[1]]
    assert head in cfg.blocks[body].succs  # back edge
    # conservative exit edge is kept even for `while True`
    assert after in cfg.blocks[head].succs


def test_break_exits_loop_directly():
    cfg, func = cfg_of(
        """
        def f(q):
            while True:
                item = q.get()
                if item is None:
                    break
            return item
        """
    )
    brk = cfg.block_of[func.body[0].body[1].body[0]]
    ret = cfg.block_of[func.body[1]]
    assert cfg.blocks[brk].succs == [ret]


def test_return_routes_through_finally():
    cfg, func = cfg_of(
        """
        def f(shm):
            try:
                return shm.read()
            finally:
                shm.close()
        """
    )
    ret = cfg.block_of[func.body[0].body[0]]
    fin = cfg.block_of[func.body[0].finalbody[0]]
    for path in enumerate_paths(cfg, cfg.entry):
        if ret in path:
            assert fin in path, "return path must execute the finally body"


def test_exception_edges_only_inside_try():
    cfg, func = cfg_of(
        """
        def f():
            a = risky()
            try:
                b = risky()
            except Exception:
                b = None
            return b
        """
    )
    outside = cfg.block_of[func.body[0]]
    inside = cfg.block_of[func.body[1].body[0]]
    landing = [b.index for b in cfg.blocks if b.label == "landing"]
    assert len(landing) == 1
    assert landing[0] in cfg.blocks[inside].succs
    assert landing[0] not in cfg.blocks[outside].succs


def test_all_paths_return_still_wires_exit():
    cfg, _ = cfg_of(
        """
        def f(c):
            if c:
                return 1
            return 2
        """
    )
    assert cfg.exit in cfg.reachable()


def test_stmt_exprs_heads_only():
    tree = ast.parse("if cond(x):\n    nested(y)\n")
    names = {
        n.id for n in stmt_exprs(tree.body[0]) if isinstance(n, ast.Name)
    }
    assert "cond" in names and "x" in names
    assert "nested" not in names  # body lives in its own block


def test_enumerate_paths_acyclic_and_capped():
    cfg, _ = cfg_of(
        """
        def f(c):
            while c:
                if c:
                    x = 1
                else:
                    x = 2
            return x
        """
    )
    paths = enumerate_paths(cfg, cfg.entry, limit=4)
    assert 0 < len(paths) <= 4
    for path in paths:
        assert len(path) == len(set(path))  # no block repeats


# -- forward dataflow ----------------------------------------------------------


class _MustAssigned(ForwardAnalysis):
    """Must-analysis: names assigned on *every* path to a block."""

    def initial(self):
        return frozenset()

    def bottom(self):
        return None

    def join(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return a & b

    def transfer(self, block, fact):
        if fact is None:
            return None
        stmt = block.stmt
        if isinstance(stmt, ast.Assign):
            names = {
                t.id for t in stmt.targets if isinstance(t, ast.Name)
            }
            return frozenset(fact | names)
        return fact


def test_run_forward_must_join_intersects_branches():
    cfg, _ = cfg_of(
        """
        def f(c):
            a = 1
            if c:
                b = 2
            else:
                d = 3
            e = 4
        """
    )
    facts = run_forward(cfg, _MustAssigned())
    # at exit: `a` assigned on all paths, `b`/`d` on one branch each
    at_exit = facts[cfg.exit]
    assert "a" in at_exit and "e" in at_exit
    assert "b" not in at_exit and "d" not in at_exit


# -- property tests ------------------------------------------------------------


_stmt = st.deferred(
    lambda: st.one_of(
        st.just(("pass",)),
        st.just(("assign",)),
        st.just(("return",)),
        st.tuples(st.just("if"), _body, _body),
        st.tuples(st.just("while"), _body),
        st.tuples(st.just("for"), _body),
        st.tuples(st.just("try"), _body, _body),
    )
)
_body = st.lists(_stmt, min_size=1, max_size=3)


def _render(body, lines, indent):
    pad = "    " * indent
    for s in body:
        kind = s[0]
        if kind == "pass":
            lines.append(pad + "pass")
        elif kind == "assign":
            lines.append(pad + "x = 1")
        elif kind == "return":
            lines.append(pad + "return x")
        elif kind == "if":
            lines.append(pad + "if c:")
            _render(s[1], lines, indent + 1)
            lines.append(pad + "else:")
            _render(s[2], lines, indent + 1)
        elif kind == "while":
            lines.append(pad + "while c:")
            _render(s[1], lines, indent + 1)
        elif kind == "for":
            lines.append(pad + "for i in xs:")
            _render(s[1], lines, indent + 1)
        elif kind == "try":
            lines.append(pad + "try:")
            _render(s[1], lines, indent + 1)
            lines.append(pad + "finally:")
            _render(s[2], lines, indent + 1)


def _program(body) -> ast.FunctionDef:
    lines = ["def f(c, x, xs):"]
    _render(body, lines, 1)
    tree = ast.parse("\n".join(lines) + "\n")
    return tree.body[0]


def _own_statements(func):
    out = []
    stack = list(func.body)
    while stack:
        s = stack.pop()
        out.append(s)
        for fld in ("body", "orelse", "finalbody"):
            stack.extend(getattr(s, fld, []))
    return out


@settings(deadline=None)  # example count: the hypothesis profile (conftest.py)
@given(_body)
def test_property_every_statement_owns_a_block(body):
    func = _program(body)
    cfg = build_cfg(func)
    for stmt in _own_statements(func):
        assert stmt in cfg.block_of


@settings(deadline=None)  # example count: the hypothesis profile (conftest.py)
@given(_body)
def test_property_edges_are_symmetric(body):
    cfg = build_cfg(_program(body))
    for b in cfg.blocks:
        for s in b.succs:
            assert b.index in cfg.blocks[s].preds
        for p in b.preds:
            assert b.index in cfg.blocks[p].succs


@settings(deadline=None)  # example count: the hypothesis profile (conftest.py)
@given(_body)
def test_property_dominators_rooted_antisymmetric(body):
    cfg = build_cfg(_program(body))
    doms = dominators(cfg)
    reach = cfg.reachable()
    assert cfg.entry in reach and cfg.exit in reach
    for b, ds in doms.items():
        assert cfg.entry in ds  # rooted
        assert b in ds  # reflexive
    for a, ds in doms.items():  # antisymmetric (no dominance cycles)
        for b in ds:
            if a != b:
                assert a not in doms[b]


@settings(deadline=None)  # example count: the hypothesis profile (conftest.py)
@given(_body)
def test_property_paths_end_at_exit(body):
    cfg = build_cfg(_program(body))
    for path in enumerate_paths(cfg, cfg.entry, limit=32):
        assert path[0] == cfg.entry
        assert path[-1] == cfg.exit
        assert len(path) == len(set(path))
