"""Guards over the package source, parsed with ``ast``.

Every parameter of every function and lambda in the package is read.  A
parameter that nothing reads is an option a caller can set and the code
silently ignores (a truncation policy passed to a function that always uses
the context's, say).  This guard parses each module of ``src/q2dpoly`` and
fails on any such parameter, ``self`` and ``cls`` aside.

No closed form drops the truncation tail of an (a;q)_inf factor: a
``qpoch_inf(...)[0]`` in the identity checkers or the kernel fails, since
``qpoch_inf_ratio`` carries the tails of a quotient of such products.  Nor
does one drop the tail of a basic hypergeometric series: a
``phi_series(...)[0]``, ``aq_function(...)[0]`` or
``bessel_i2_series(...)[0]`` in those modules or in ``measures.py`` fails.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "q2dpoly")


def _params(node):
    a = node.args
    names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
    names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
    return [n for n in names if n not in ("self", "cls")]


def _reads(node):
    body = node.body if isinstance(node.body, list) else [node.body]
    return {n.id for stmt in body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _unread(tree, module):
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = getattr(child, "name", "<lambda>")
                inner = scope + [name]
                reads = _reads(child)
                out.extend(".".join(inner + [p]) for p in _params(child) if p not in reads)
                visit(child, inner)
            elif isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name])
            else:
                visit(child, scope)

    visit(tree, [module])
    return out


def test_unread_finder_flags_an_ignored_parameter():
    tree = ast.parse("def f(ctx, trunc=None):\n    return ctx\n"
                     "g = lambda c, t: c\n"
                     "class K:\n    def m(self, x):\n        return lambda y: x\n")
    assert _unread(tree, "m") == ["m.f.trunc", "m.<lambda>.t", "m.K.m.<lambda>.y"]


def test_no_unread_parameters():
    unread = []
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as fh:
                tree = ast.parse(fh.read(), filename=fname)
            unread += _unread(tree, fname[:-3])
    assert unread == []


SERIES = ("phi_series", "aq_function", "bessel_i2_series")


def _dropped_tails(tree, names=("qpoch_inf",)):
    return [n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.Subscript) and isinstance(n.value, ast.Call)
            and getattr(n.value.func, "id", None) in names
            and isinstance(n.slice, ast.Constant) and n.slice.value == 0]


def test_dropped_tail_finder_flags_an_index():
    tree = ast.parse("x = qpoch_inf(ctx, a)[0] * f(ctx)[0]\ny, t = qpoch_inf(ctx, b)\n"
                     "w = phi_series(ctx, [a], [b], z)[0] + aq_function(ctx, z)[0]\n"
                     "v = bessel_i2_series(ctx, a, y)[0]\nu, s = phi_series(ctx, [], [b], z)\n")
    assert _dropped_tails(tree) == [1]
    assert sorted(_dropped_tails(tree, SERIES)) == [3, 3, 4]


def test_no_dropped_qpoch_inf_tails():
    dropped = []
    for fname, names in (("identities_numeric.py", ("qpoch_inf",) + SERIES),
                         ("qkernel.py", ("qpoch_inf",) + SERIES), ("measures.py", SERIES)):
        with open(os.path.join(SRC, fname)) as fh:
            dropped += [f"{fname}:{ln}" for ln in _dropped_tails(ast.parse(fh.read()), names)]
    assert dropped == []
