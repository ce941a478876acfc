"""Guards over the package source, parsed with ``ast``.

Every parameter of every function and lambda in the package is read.  A
parameter that nothing reads is an option a caller can set and the code
silently ignores (a truncation policy passed to a function that always uses
the context's, say).  This guard parses each module of ``src/q2dpoly`` and
fails on any such parameter, ``self`` and ``cls`` aside.

No closed form drops the truncation tail of an (a;q)_inf factor: a
``qpoch_inf(...)[0]`` in the identity checkers, the kernel or the measures
fails, since ``qpoch_inf_ratio`` carries the tails of a quotient of such
products.  Nor does one drop the tail of a basic hypergeometric series: a
``phi_series(...)[0]``, ``aq_function(...)[0]`` or
``bessel_i2_series(...)[0]`` in those modules fails.

No module but the kernel and the context multiplies a running product by
(1 +- x) factors, whether the product is a name (``p = p * (1 - x)``,
``p *= 1 + x``) or a list element read at a walking index
(``v.append(v[-1] * (1 - x))``, ``v[i - d] * (1 + x)``): a finite
q-shifted factorial is a ``qpoch`` or ``QPochPrefix`` read, (a;q)_inf on
arguments a, aq, aq^2, ... a ``qpoch_inf_ladder`` read, and a base-1/q
Gaussian binomial a ``qbinom_inv``.  In the kernel the one loop over the
factors (1 - a q^k) is ``QPochPrefix``'s, and the one (a;q)_inf chain is
``qpoch_inf_ladder``'s: (a;q)_inf is Euler's series, and its product
route reads a ``QPochPrefix``.
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
    for fname in ("identities_numeric.py", "qkernel.py", "measures.py"):
        with open(os.path.join(SRC, fname)) as fh:
            tree = ast.parse(fh.read())
        dropped += [f"{fname}:{ln}" for ln in _dropped_tails(tree, ("qpoch_inf",) + SERIES)]
    assert dropped == []


def _one_plus_minus(node):
    """Whether node is 1 + x, 1 - x or x + 1."""
    def one(x):
        return isinstance(x, ast.Constant) and x.value == 1

    return isinstance(node, ast.BinOp) and (
        (isinstance(node.op, (ast.Add, ast.Sub)) and one(node.left))
        or (isinstance(node.op, ast.Add) and one(node.right)))


def _element_times_factor(node):
    """Whether node is `v[i] * (1 +- x)` (either factor order) for a list
    element read at a walking index: `v[-1]`, `v[i - d]`, `v[k]`.  An
    element at a constant index, `v[0]`, starts no chain."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
        return False

    def element(x):
        return isinstance(x, ast.Subscript) and not isinstance(x.slice, ast.Constant)

    return ((element(node.left) and _one_plus_minus(node.right))
            or (element(node.right) and _one_plus_minus(node.left)))


def _running_products(tree):
    """Lines of `p = p * (1 - x)`, `p = (1 + x) * p` and `p *= 1 - x`, and
    of a list element times (1 +- x), as in `v.append(v[-1] * (1 - x))` or
    `v[i - d] * (1 + x)`."""
    out = []
    for n in ast.walk(tree):
        if _element_times_factor(n):
            out.append(n.lineno)
        elif (isinstance(n, ast.AugAssign) and isinstance(n.op, ast.Mult)
                and isinstance(n.target, ast.Name) and _one_plus_minus(n.value)):
            out.append(n.lineno)
        elif (isinstance(n, ast.Assign) and len(n.targets) == 1
              and isinstance(n.targets[0], ast.Name)
              and isinstance(n.value, ast.BinOp) and isinstance(n.value.op, ast.Mult)):
            name, left, right = n.targets[0].id, n.value.left, n.value.right
            if ((getattr(left, "id", None) == name and _one_plus_minus(right))
                    or (getattr(right, "id", None) == name and _one_plus_minus(left))):
                out.append(n.lineno)
    return out


def test_running_product_finder_flags_a_factor_loop():
    tree = ast.parse("p = p * (1 - x)\np *= 1 - a * q**k\np = (1 + x) * p\n"
                     "r = p * (1 - x)\np = p * (x - 1)\np = p * (nu + i)\ns += 1 - x\n"
                     "v.append(v[-1] * (1 - x))\nv.append((1 + x) * v[-1])\n"
                     "val = pinf[i - d] * (1 + xv)\nu = (1 - x) * w[k]\n"
                     "v.append(w[0] * (1 - x))\nr = v[0] * (1 + x)\nv.append(v[-1] * (x + 1))\n")
    assert sorted(_running_products(tree)) == [1, 2, 3, 8, 9, 10, 11, 14]


def test_no_running_products_outside_the_kernel():
    found = []
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py") and fname not in ("qkernel.py", "context.py"):
            with open(os.path.join(SRC, fname)) as fh:
                tree = ast.parse(fh.read())
            found += [f"{fname[:-3]}.{owner}" for owner in _product_owners(tree)]
    assert found == []


def _product_owners(tree):
    """{dotted name of the innermost function: running products in it}."""
    defs = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                if isinstance(child, ast.FunctionDef):
                    defs.append((child.lineno, child.end_lineno, ".".join(scope + [child.name])))
                visit(child, scope + [child.name])
            else:
                visit(child, scope)

    visit(tree, [])
    out = {}
    for ln in _running_products(tree):
        owner = max((d for d in defs if d[0] <= ln <= d[1]), default=(0, 0, "<module>"))[2]
        out[owner] = out.get(owner, 0) + 1
    return out


def test_product_owner_finder_names_the_innermost_function():
    tree = ast.parse("class K:\n    def f(self):\n        p = p * (1 - x)\n"
                     "        def g():\n            v.append(v[-1] * (1 - y))\n"
                     "        return g\n"
                     "p = p * (1 + z)\n")
    assert _product_owners(tree) == {"K.f": 1, "K.f.g": 1, "<module>": 1}


def test_one_qpoch_loop_in_the_kernel():
    # QPochPrefix holds the kernel's one loop over the factors (1 - a q^k),
    # and qpoch_inf_ladder its one (a;q)_inf chain, (a;q)_inf =
    # (1 - a)(aq;q)_inf.  The phi_series loop's three products run over the
    # parameters of one term n (its ratio's numerator factors 1 - a q^n, and
    # the double bounds of that ratio), so none is an (a;q) loop.  A second
    # (a;q)_n or (a;q)_inf loop fails here
    with open(os.path.join(SRC, "qkernel.py")) as fh:
        tree = ast.parse(fh.read())
    assert _product_owners(tree) == {"QPochPrefix.__call__": 1, "_phi_sum": 3,
                                     "qpoch_inf_ladder": 1}


# Every public name has a caller.  A name in a module's ``__all__``, or a
# public method of a class exported there, must be read somewhere other than
# its own definition and its unit tests: elsewhere in the package, in the
# scripts, in the benchmark (whose tracer names the functions it wraps as
# dotted strings) or in the acceptance tests.  The paper's moment and
# q-beta/Askey-integral checks are reached by unit tests only, since routing
# them through the identity registry would change the benchmark's workloads;
# they are listed by name, and the list must match exactly, so that it
# cannot go stale.
ROOT = os.path.dirname(os.path.dirname(SRC))
CALLER_DIRS = ("src", "scripts", "perfbench")
CALLER_FILES = (os.path.join("tests", "test_acceptance.py"),)
NO_CALLER_YET = ["measures.angular_quadrature_check", "measures.moment",
                 "measures.qbeta_check"]


def _public_api(module, tree):
    """{dotted name: defining node} of module's ``__all__`` names defined in
    it and of the public methods of the classes among them."""
    exported = set()
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    defs[t.id] = node
                    if t.id == "__all__":
                        exported |= {e.value for e in node.value.elts}
    out = {}
    for name in sorted(exported & set(defs)):
        node = out[f"{module}.{name}"] = defs[name]
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    out[f"{module}.{name}.{item.name}"] = item
    return out


def _references(tree, dotted_strings=False):
    """(name, line) of every name tree loads or reads as an attribute, and,
    with dotted_strings, of each part of every string constant."""
    out = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.append((n.id, n.lineno))
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out.append((n.attr, n.lineno))
        elif dotted_strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            out += [(part, n.lineno) for part in n.value.split(".")]
    return out


def _uncalled(api, refs):
    """The names of api ({dotted name: (path, node)}) that no reference in
    refs ({path: [(name, line)]}) reads outside their own definition."""
    def called(dotted, path, node):
        name = dotted.rsplit(".", 1)[1]
        return any(r == name and not (p == path and node.lineno <= ln <= node.end_lineno)
                   for p, found in refs.items() for r, ln in found)

    return sorted(d for d, (path, node) in api.items() if not called(d, path, node))


def test_uncalled_finder_flags_a_name_read_only_by_itself():
    mod = ast.parse("__all__ = ['f', 'g', 'K']\n"
                    "def f(x):\n    return f(x - 1)\n"
                    "def g():\n    return 1\n"
                    "class K:\n    def used(self):\n        return self.spare()\n"
                    "    def spare(self):\n        return K\n")
    api = {d: ("m.py", node) for d, node in _public_api("m", mod).items()}
    other = ast.parse("import m\nm.g()\nk = m.K()\nk.used()\n")
    refs = {"m.py": _references(mod), "use.py": _references(other)}
    assert _uncalled(api, refs) == ["m.f"]
    refs["bench.py"] = _references(ast.parse("WRAP = ['m.f']\n"), dotted_strings=True)
    assert _uncalled(api, refs) == []


def _caller_paths():
    paths = [os.path.join(ROOT, f) for f in CALLER_FILES]
    for d in CALLER_DIRS:
        for dirpath, _, files in os.walk(os.path.join(ROOT, d)):
            paths += [os.path.join(dirpath, f) for f in files if f.endswith(".py")]
    return sorted(paths)


def test_public_names_have_callers():
    api, refs = {}, {}
    for path in _caller_paths():
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        refs[path] = _references(tree, dotted_strings=path.startswith(
            os.path.join(ROOT, "perfbench")))
        if os.path.dirname(path) == SRC:
            module = os.path.basename(path)[:-3]
            api.update({d: (path, node) for d, node in _public_api(module, tree).items()})
    assert _uncalled(api, refs) == NO_CALLER_YET


# Every defaulted parameter is passed somewhere.  A parameter with a default
# that no call among the callers above passes, by keyword or by position, is
# a constant dressed as an option: make it one.  Calls are matched by the
# function's name alone, and a call with *args or **kwargs passes
# everything; calls on an attribute (obj.f(...)) or of a class (for its
# __init__) skip the bound first parameter of a method.  The parameters of
# the NO_CALLER_YET functions, which only unit tests reach, are exempt.

def _defaulted(module, tree):
    """[(dotted name, def name, is method, [(position or None, parameter)])]
    of the functions in tree with defaulted parameters."""
    out = []

    def visit(node, scope, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                pos = a.posonlyargs + a.args
                params = [(i, p.arg) for i, p in enumerate(pos)
                          if i >= len(pos) - len(a.defaults)]
                params += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                           if d is not None]
                dotted = ".".join(scope + [child.name])
                if params:
                    out.append((dotted, child.name, in_class, params))
                visit(child, scope + [child.name], False)
            elif isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name], True)
            else:
                visit(child, scope, in_class)

    visit(tree, [module], False)
    return out


def _calls(tree):
    """{called name: [(positional count, keywords, bound)]} of tree's calls;
    a count or keyword set of None stands for *args or **kwargs."""
    out = {}
    for n in ast.walk(tree):
        if isinstance(n, ast.Call):
            f = n.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            npos = (None if any(isinstance(x, ast.Starred) for x in n.args)
                    else len(n.args))
            kws = {k.arg for k in n.keywords}
            call = (npos, None if None in kws else kws, isinstance(f, ast.Attribute))
            out.setdefault(name, []).append(call)
            if name and name[:1].isupper():  # a class call runs its __init__
                out.setdefault("__init__", []).append(call[:2] + (True,))
    return out


def _passes(call, pos, param, method):
    """Whether call passes the parameter param at position pos (None for
    keyword-only) of a function, a method if method."""
    npos, kws, bound = call
    if npos is None or kws is None or param in kws:
        return True
    return pos is not None and npos > pos - (1 if method and bound else 0)


def _never_passed(defs, calls):
    """The dotted parameter names of defs that no call passes."""
    return [f"{dotted}.{param}" for dotted, name, method, params in defs
            for pos, param in params
            if not any(_passes(c, pos, param, method) for c in calls.get(name, ()))]


def test_never_passed_finder_flags_a_constant_parameter():
    mod = ast.parse("def f(x, y=1, *, z=2):\n    return x + y + z\n"
                    "def g(x, y=1):\n    return x + y\n"
                    "class K:\n    def __init__(self, a=0):\n        self.a = a\n"
                    "    def m(self, b=0):\n        return b\n")
    use = ast.parse("f(1, z=3)\ng(*xs)\nK(5)\nk.m()\n")
    assert _never_passed(_defaulted("m", mod), _calls(use)) == ["m.f.y", "m.K.m.b"]


def test_defaulted_parameters_are_passed():
    defs, calls = [], {}
    for path in _caller_paths():
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        for name, found in _calls(tree).items():
            calls.setdefault(name, []).extend(found)
        if os.path.dirname(path) == SRC:
            defs += _defaulted(os.path.basename(path)[:-3], tree)
    exempt = tuple(name + "." for name in NO_CALLER_YET)
    assert [p for p in _never_passed(defs, calls) if not p.startswith(exempt)] == []
