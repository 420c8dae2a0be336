"""Seeded mutation check of the test suite.

Draws mutants of ``src/wl1approx``, each a copy of the package with one
deliberate fault, and runs the test suite once per mutant to record which
tests fail.  A mutant that no test fails is a survivor: a missing test or
dead code.

Operators: flip a comparison (``<`` and ``>=``, ``>`` and ``<=``, ``==``
and ``!=``, ``is``, ``in``), swap ``+`` and ``-``, drop a unary minus,
perturb a numeric constant (an integer plus 1, a float times 2, 0.0 to
1.0), replace one statement of a function body by ``pass``, and swap
``min`` and ``max`` (names and attributes, with ``argmin``, ``minimum``
and ``amin``), ``and`` and ``or``, ``True`` and ``False``.  The mutants
are split over the modules by line count, largest remainders first.
Within a module each operator's sites and the operator order are
shuffled by ``random.Random(SEED)``, and sites are drawn round-robin over
the operators; the ids run by module, then by position in the source.
A fresh draw is made by changing SEED.

    python tools/mutants.py --list                    # print the draw
    python tools/mutants.py --out kills.json          # run it
    python tools/mutants.py --site solver.py:367:minmax --out site.json

The run mode first runs the unmutated suite; a test that fails there is
no kill.  Each suite runs on one BLAS thread, and one that takes more
than four times the unmutated run is stopped and counted as killed by
``TIMEOUT``.  ``--root`` points at another checkout, whose own ``src``
and ``tests`` are then used.
"""

import argparse
import ast
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNT = 150
SEED = 38
OPERATORS = ("cmp", "addsub", "neg", "const", "drop", "minmax", "andor",
             "bool")
FLIP = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
        ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In}
SYMBOL = {ast.Lt: "<", ast.GtE: ">=", ast.Gt: ">", ast.LtE: "<=",
          ast.Eq: "==", ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not",
          ast.In: "in", ast.NotIn: "not in"}
SWAP = {}
for _low, _high in (("min", "max"), ("argmin", "argmax"),
                    ("minimum", "maximum"), ("amin", "amax")):
    SWAP.update({_low: _high, _high: _low})


def _expr(node):
    return "(" + ast.unparse(node) + ")"


def _mutations(node):
    """Yield (operator, replacement source, change) for one AST node."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in FLIP:
                ops = list(node.ops)
                ops[i] = FLIP[type(op)]()
                new = ast.Compare(node.left, ops, node.comparators)
                yield "cmp", _expr(new), "%s -> %s" % (
                    SYMBOL[type(op)], SYMBOL[type(ops[i])])
    elif isinstance(node, ast.BinOp) and isinstance(node.op,
                                                    (ast.Add, ast.Sub)):
        op = ast.Sub() if isinstance(node.op, ast.Add) else ast.Add()
        yield "addsub", _expr(ast.BinOp(node.left, op, node.right)), \
            "+ -> -" if isinstance(node.op, ast.Add) else "- -> +"
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        yield "neg", _expr(node.operand), "unary minus dropped"
    elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
        value = node.value
        new = value + 1 if type(value) is int else \
            1.0 if value == 0.0 else 2 * value
        yield "const", repr(new), "%r -> %r" % (value, new)
    elif isinstance(node, ast.Constant) and type(node.value) is bool:
        yield "bool", repr(not node.value), "%r -> %r" % (node.value,
                                                           not node.value)
    elif isinstance(node, ast.Name) and node.id in SWAP:
        yield "minmax", SWAP[node.id], "%s -> %s" % (node.id, SWAP[node.id])
    elif isinstance(node, ast.Attribute) and node.attr in SWAP:
        new = ast.Attribute(node.value, SWAP[node.attr], node.ctx)
        yield "minmax", _expr(new), "%s -> %s" % (node.attr,
                                                  SWAP[node.attr])
    elif isinstance(node, ast.BoolOp):
        op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
        yield "andor", _expr(ast.BoolOp(op, node.values)), \
            "and -> or" if isinstance(node.op, ast.And) else "or -> and"


def _droppable(body):
    for stmt in body:
        docstring = isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, ast.Constant) and isinstance(stmt.value.value, str)
        if not (docstring or isinstance(stmt, (
                ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                ast.Pass))):
            yield stmt


def module_sites(module, source):
    """Every mutation of one module, in source order.

    A site is a dict: module, line, operator, change and the byte span
    (start, end) that its replacement source takes.
    """
    tree = ast.parse(source)
    data = source.encode()
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def span(node):
        return (starts[node.lineno - 1] + node.col_offset,
                starts[node.end_lineno - 1] + node.end_col_offset)

    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            skip.update(id(n) for n in ast.walk(node))
    found = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        for op, new, change in _mutations(node):
            found.append((node, op, new, change))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in ast.walk(node):
                for field in ("body", "orelse", "finalbody"):
                    for s in _droppable(getattr(stmt, field, [])
                                        if not isinstance(stmt, ast.expr)
                                        else []):
                        if not data[span(s)[0]:].startswith(b"elif"):
                            found.append((s, "drop", "pass",
                                          "statement -> pass"))
    sites = {}
    for node, op, new, change in found:
        start, end = span(node)
        sites[(start, op, new)] = dict(module=module, line=node.lineno,
                                       operator=op, change=change,
                                       start=start, end=end, new=new)
    return [sites[k] for k in sorted(sites)]


def mutate(source, site):
    data = source.encode()
    return (data[:site["start"]] + site["new"].encode()
            + data[site["end"]:]).decode()


def _compiles(source):
    try:
        compile(source, "<mutant>", "exec")
    except SyntaxError:
        return False
    return True


def read_package(root):
    pkg = os.path.join(root, "src", "wl1approx")
    sources = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                sources[name] = fh.read()
    return sources


def draw(sources, count, seed):
    """The seeded draw: count mutants, numbered m000, m001, ..."""
    rng = random.Random(seed)
    sites = {m: module_sites(m, s) for m, s in sources.items()}
    sites = {m: s for m, s in sites.items() if s}
    lines = {m: len(sources[m].splitlines()) for m in sites}
    total = sum(lines.values())
    quota = {m: count * lines[m] // total for m in sites}
    by_remainder = sorted(sites, key=lambda m: -(count * lines[m] % total))
    for m in by_remainder[:count - sum(quota.values())]:
        quota[m] += 1
    chosen = []
    for m in sorted(sites):
        pools = {op: [s for s in sites[m] if s["operator"] == op]
                 for op in OPERATORS}
        for pool in pools.values():
            rng.shuffle(pool)
        order = list(OPERATORS)
        rng.shuffle(order)
        taken = []
        while len(taken) < quota[m] and any(pools.values()):
            for op in order:
                if len(taken) == quota[m]:
                    break
                while pools[op]:
                    site = pools[op].pop()
                    if _compiles(mutate(sources[m], site)):
                        taken.append(site)
                        break
        chosen.extend(sorted(taken, key=lambda s: s["start"]))
    for i, site in enumerate(chosen):
        site["id"] = "m%03d" % i
    return chosen


def named_sites(sources, names):
    """The sites FILE:LINE:OPERATOR names, every one on that line."""
    chosen = []
    for name in names:
        module, line, op = name.split(":")
        matches = [s for s in module_sites(module, sources[module])
                   if s["line"] == int(line) and s["operator"] == op]
        if not matches:
            sys.exit("no %s site on %s line %s" % (op, module, line))
        chosen.extend(matches)
    for i, site in enumerate(chosen):
        site["id"] = "s%03d" % i
    return chosen


def run_suite(root, timeout, module=None, source=None):
    """Run root's tests on its package, with module's source replaced if
    given; return (failed test ids, seconds)."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "wl1approx")
        shutil.copytree(os.path.join(root, "src", "wl1approx"), copy)
        if module:
            with open(os.path.join(copy, module), "w",
                      encoding="utf-8") as fh:
                fh.write(source)
        report = os.path.join(tmp, "report.xml")
        env = dict(os.environ, PYTHONPATH=tmp, OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", "--junitxml", report],
            cwd=root, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, start_new_session=True)
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return ["TIMEOUT"], time.perf_counter() - start
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
        seconds = time.perf_counter() - start
        if not os.path.exists(report):
            return ["NO REPORT"], seconds
        failed = []
        for case in ET.parse(report).iter("testcase"):
            if case.find("failure") is not None or \
                    case.find("error") is not None:
                failed.append("%s::%s" % (case.get("classname"),
                                          case.get("name")))
        return sorted(failed), seconds


def run(root, sources, mutants, out):
    baseline, seconds = run_suite(root, None)
    print("unmutated suite: %.1f s, %d failing" % (seconds, len(baseline)),
          file=sys.stderr)
    timeout = 4 * seconds
    result = dict(baseline_seconds=round(seconds, 1),
                  baseline_failures=baseline, mutants=[])

    for site in mutants:
        module = site["module"]
        failed, _ = run_suite(root, timeout, module,
                              mutate(sources[module], site))
        killed_by = [t for t in failed if t not in baseline]
        entry = {k: site[k] for k in ("id", "module", "line", "operator",
                                      "change")}
        entry["killed_by"] = killed_by
        result["mutants"].append(entry)
        result["killed"] = sum(bool(m["killed_by"])
                               for m in result["mutants"])
        print("%s %s:%d %s: %s" % (
            site["id"], site["module"], site["line"], site["change"],
            "%d tests" % len(killed_by) if killed_by else "SURVIVED"),
            file=sys.stderr)
        with open(out, "w") as fh:
            json.dump(result, fh, indent=1)
    print("killed %d of %d" % (result["killed"], len(mutants)))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--list", action="store_true",
                    help="print the draw and exit")
    ap.add_argument("--site", action="append", default=[],
                    metavar="FILE:LINE:OPERATOR",
                    help="run the named sites instead of the draw")
    ap.add_argument("--out", default="kills.json",
                    help="kill matrix, written as JSON")
    ap.add_argument("--root", default=ROOT,
                    help="checkout whose src and tests are used")
    args = ap.parse_args(argv)
    sources = read_package(args.root)
    mutants = (named_sites(sources, args.site) if args.site
               else draw(sources, COUNT, SEED))
    if args.list:
        for site in mutants:
            print("%s %s:%d %s %s" % (site["id"], site["module"],
                                      site["line"], site["operator"],
                                      site["change"]))
        return
    run(args.root, sources, mutants, args.out)


if __name__ == "__main__":
    main()
