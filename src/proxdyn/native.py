"""Compiled DP5 kernels, and the build and cache of the package's C
libraries, the CSV writer's too.

A DP5 (rk45_adaptive) variant whose prox carries a scalar source,
prox.coordinate_source, also has a C form, which integrate and the public
rhs_* run in place of the Python kernel whenever it builds.  Its C is the
Python kernel's own text (dynamics._source) after the prelude, the whole
step loop, put into C by a small translator (_Translator), each operation
the same IEEE double operation in the same order; a variant that it
refuses keeps its Python kernel.  Only the helpers, the sample buffers and
the declarations of the inputs are written in C (_TEMPLATE).  Line k of
the library's proxdyn_raises is the exception of its failure code k: the
raise's own text, as a lambda that Python evaluates on the doubles the C
reports.  So every call runs in C, on the Python kernel's inputs
(dynamics._inputs), with its outcome, bit for bit: the samples, the step
counters, KX and KY, and each DivergenceError, StepSizeError or
ZeroDivisionError with its message, t_last and h.

The C is compiled by cc on PATH, as cc -O2 -fPIC -shared -ffp-contract=off
(no fast-math, no -march, no fused multiply-adds; a host whose C keeps
doubles in wider registers, as x87 does, fails the build by an #error),
the first time a run asks for the variant, never at import, in build_run
or in validation, and loaded through ctypes; the CSV writer's
csvio._SOURCE is built by the same _load.  A library is cached in
$XDG_CACHE_HOME/proxdyn or ~/.cache/proxdyn, of mode 0700, or else in a
private directory of the process, deleted at exit, under the SHA-256 of
what its source is made from, the compiler command and the platform: for a
DP5 kernel the Python kernel's text and this module's file, so a cached
kernel loads without a translation.  A build is moved into place with
os.replace, so processes that build it at once do not clash, and deleting
the cache is always safe.  Without a compiler, and after a failed build,
which warns with the compiler's first error line, the variant runs its
Python kernel, the tests' reference.  The samples stay in the C buffers,
trimmed to their rows, which the returned arrays read and free.
"""

from __future__ import annotations

import ast
import atexit
import ctypes
import functools
import math
import os
import platform
import re
import shutil
import stat
import string
import sys
import tempfile
import textwrap
import warnings

import numpy as np

try:  # CPython's own SHA-256: hashlib's maps OpenSSL's libcrypto, 3.5 MB of RSS
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from . import dynamics
from .errors import DivergenceError, StepSizeError

__all__ = []

# IEEE double arithmetic, each operation rounded on its own, as Python does it
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_BUILD_TIMEOUT_S = 300.0

# what proxdyn_dp5 returns with the samples; k > 0 is the failure on line k of proxdyn_raises
_OK = 0
# the kernel's buffers, m doubles each in w: the state, its derivative, the
# step's new ones and its squared errors
_BUFFERS = ("X", "Y", "KX", "KY", "XN", "YN", "KXN", "KYN", "SX", "SY")
# the exceptions that a raise of the kernel may name; a division by zero is
# Python's own, raised by its failure's lambda
_EXCEPTIONS = {"DivergenceError": DivergenceError, "StepSizeError": StepSizeError}
_ZERO_DIVIDED, _NO_MEMORY = "lambda: 1.0 / 0.0", "lambda: MemoryError('no memory for the samples')"

_TEMPLATE = """\
#include <float.h>
#include <math.h>
#include <stdlib.h>
#include <string.h>

/* each double operation rounded to a double, as CPython rounds it: a host
   that keeps intermediates in wider registers (x87) builds no kernel */
#if FLT_EVAL_METHOD != 0
#error "double arithmetic here is not IEEE binary64 operation by operation"
#endif

/* what the kernel records: n samples in buffers of cap rows, one each for t
   and the m coordinates of x, y and xdot, the values that the exception of
   a failure reads, and the step counters, KX and KY of a return */
struct out {
    double *buf[4], at[2];
    long long n, cap, counts[3];
    const double *k[2];
};

/* Python's float ** for x > 0 and a finite y; *over is set where Python's **
   raises OverflowError: where a finite x gives an infinite power */
static inline double power(double x, double y, int *over)
{
    double r;
    if (y == 0.0)
        return 1.0;
    if (isinf(x))
        return y > 0.0 ? x : 0.0;
    r = pow(x, y);
    if (isinf(r))
        *over = 1;
    return r;
}

/* a / b, or zdiv set where b is zero and Python raises ZeroDivisionError */
#define DIV(a, b) ((b) == 0.0 ? (zdiv = 1, 0.0) : (a) / (b))

/* min and max as CPython's builtins pick among two floats */
static inline double pymin(double a, double b) { return b < a ? b : a; }
static inline double pymax(double a, double b) { return b > a ? b : a; }

/* the buffers resized to rows rows (t's of one double, the others of m); 1
   where the allocator fails, which keeps that buffer and the ones after it */
static int resize(struct out *o, int m, long long rows)
{
    int j;
    for (j = 0; j < 4; j++) {
        double *p = realloc(o->buf[j], rows * (j ? m : 1) * sizeof(double));
        if (!p)
            return 1;
        o->buf[j] = p;
    }
    return 0;
}

static int sample(struct out *o, int m, double t, const double *x, const double *y,
                  const double *xdot)
{
    const double *row[4] = {&t, x, y, xdot};
    int j;
    /* on a failure the kernel fails, and its buffers are freed */
    if (o->n == o->cap && resize(o, m, o->cap = o->cap ? 2 * o->cap : 256))
        return 1;
    for (j = 0; j < 4; j++)
        memcpy(o->buf[j] + o->n * (j ? m : 1), row[j], (j ? m : 1) * sizeof(double));
    o->n++;
    return 0;
}

void proxdyn_free(double *p)
{
    free(p);
}

/* line k of this text is the exception of failure k, a lambda of o->at */
const char *const proxdyn_raises =
$raises;

/* dynamics._DP5_TEMPLATE on m lanes after its prelude, translated.  w holds
   the buffers, X and Y set to the start; numbers the numbers in the order of
   dynamics._NUMBERS, counts max_steps and the sample stride, and params the
   prox's parameters, one array each */
int proxdyn_dp5(int m, double *w, const double *numbers, const long long *counts,
                const double *const *params, struct out *o)
{
$numbers
$params
    const long long max_steps = counts[0], stride = counts[1];
$locals
    double *swap;
    int i, over, zdiv = 0;
$body
}
"""

class _Refused(Exception):
    """A kernel text that the translator refuses, when the C source is built."""


class _BuildFailed(Exception):
    """The compiler exited with an error; the message is the first line of
    its stderr that names an error, or else its first line."""


_COMPARE = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
            ast.NotEq: "!="}
_BINOP = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Mod: "%"}
_BOOL = {ast.And: " && ", ast.Or: " || "}
_CALLS = {"min": "pymin", "max": "pymax"}
_ONE = {"abs": ("fabs", float), "sqrt": ("sqrt", float), "isfinite": ("isfinite", bool)}
_SAMPLE = re.compile(r"ts\.append\((\w+)\)\nxs\.fromlist\((\w+)\)\nys\.fromlist\((\w+)\)\n"
                     r"xdots\.fromlist\((\w+)\)")
_RETURN = re.compile(r"return \(\(ts, xs, ys, xdots\), \((\w+), (\w+), (\w+)\), (\w+), (\w+)\)")


class _Translator:
    """Python statements to C statements of the same operations in the same
    order, each parenthesized as the Python tree groups it.  A value is a
    float, an int (a counter, long long in C) or a bool (a test), and a name
    keeps the kind of its first value.  An array is read as name[i] in a
    lane; a list is a C buffer that a lane fills, NAME = [] left out and
    NAME.append(expr) as NAME[i] = expr.  A tuple assignment may not read
    its targets, unless it swaps buffers into arrays that no subscript reads
    (X, Y = XN, YN).  An int and a float meet only in /, and % takes ints
    (C's is Python's on the nonnegative counters and positive stride); sqrt
    takes a mean of squares, never negative.  The handler of the stage
    constants' try/except OverflowError assigns each name of the try again,
    and runs where a ** or power() overflowed; outside it ** takes only a
    constant exponent of at most 0.5 in size on the name that the
    conditional expression around tests > 0.0.  A raise of DivergenceError
    or StepSizeError leaves the floats that it reads in o->at and returns
    its code k, line k of raises holding its exception as a lambda of them;
    each raise, sample, return and while body's end first returns the code
    of a division by zero before it.  Anything else raises _Refused."""

    def __init__(self, names, arrays=frozenset(), lists=frozenset(), counters=frozenset()):
        self.kinds = {**dict.fromkeys(names, float), **dict.fromkeys(counters, int)}
        self.inputs, self.arrays, self.lists = set(self.kinds), arrays, lists
        self.locals, self.empty, self.raises = [], set(), []
        self.lane = self.over = False  # inside the lane loop, inside the try
        self.positive = None  # the name that the conditional expression around tests > 0.0

    def block(self, body) -> list:
        lines, body = [], list(body)
        while body:
            row = (isinstance(body[0], ast.Expr)
                   and _SAMPLE.fullmatch("\n".join(map(ast.unparse, body[:4]))))
            lines += self.sample(*row.groups()) if row else self.statement(body[0])
            del body[:4 if row else 1]
        return lines

    def statement(self, node) -> list:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            return self.assign(node.targets[0], node.value)
        if isinstance(node, ast.AugAssign):
            read = ast.Name(getattr(node.target, "id", None))
            return self.assign(node.target, ast.BinOp(read, node.op, node.value))
        if isinstance(node, ast.For):
            return self.loop(node)
        if isinstance(node, ast.Try):
            return self.overflow(node)
        if isinstance(node, ast.Expr):
            return self.append(node.value)
        if self.lane or self.over or isinstance(node, ast.While) and node.orelse:
            raise _Refused(f"the statement {type(node).__name__} here")
        if isinstance(node, (ast.If, ast.While)):
            test, body = self.typed(node.test, bool), self.block(node.body)
            if isinstance(node, ast.While):
                return [f"while {test} {{", *_indent(body + self.check()), "}"]
            orelse = self.block(node.orelse)
            return [f"if {test} {{", *_indent(body),
                    *(["} else {", *_indent(orelse)] if orelse else []), "}"]
        if isinstance(node, ast.Raise) and node.cause is None:
            return self.fail(node.exc)
        if isinstance(node, ast.Return):
            return self.finish(node)
        raise _Refused(f"the statement {type(node).__name__}")

    def append(self, call) -> list:
        name = getattr(getattr(getattr(call, "func", None), "value", None), "id", None)
        if not (isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "append"
                and name in self.empty and self.lane and len(call.args) == 1
                and not call.keywords):
            raise _Refused("an expression statement other than a lane's append")
        self.empty.remove(name)
        return [f"{name}[i] = {self.typed(call.args[0], float)};"]

    def assign(self, target, value) -> list:
        pairs = (list(zip(target.elts, value.elts)) if isinstance(target, ast.Tuple)
                 and isinstance(value, ast.Tuple) and len(target.elts) == len(value.elts)
                 else [(target, value)])
        names, values = ([getattr(node, "id", None) for node in side] for side in zip(*pairs))
        if self.lists.issuperset(names) and not self.lane:
            if all(isinstance(v, ast.List) and not v.elts for _, v in pairs):
                self.empty.update(names)
                return []
            if (len({*names, *values}) == 2 * len(names)  # X, Y = XN, YN: pointer swaps
                    and self.arrays.issuperset(names) and self.lists.difference(self.arrays)
                    .issuperset(values)):
                return [f"swap = {a}; {a} = {b}; {b} = swap;" for a, b in zip(names, values)]
        read = {node.id for _, v in pairs for node in ast.walk(v) if isinstance(node, ast.Name)}
        if (None in names or len(pairs) > 1 and read.intersection(names)
                or self.inputs.union(self.lists).intersection(names)):
            raise _Refused(f"an assignment to {names}")
        lines = []
        for name, (_, v) in zip(names, pairs):
            text, kind = self.value(v)
            if kind is bool or self.kinds.get(name, kind) is not kind:
                raise _Refused(f"a {kind.__name__} in {name}")
            lines.append(f"{name} = {text};")
            self.locals += [] if name in self.kinds else [name]
            self.kinds[name] = kind
        return lines

    def loop(self, node) -> list:
        """for i in lanes, or for v in (A) + (B) + ... of lists, list by list."""
        target, text = getattr(node.target, "id", None), ast.unparse(node.iter)
        lists, lane = re.findall(r"\w+", text), target == "i" and text == "lanes"
        if (node.orelse or self.lane or self.over or not lane and (
                text != " + ".join(lists) or not self.lists.issuperset(lists)
                or self.empty.intersection(lists) or target in {None, "i", *self.lists}
                or target in self.inputs or self.kinds.get(target, float) is not float)):
            raise _Refused("a loop other than for i in lanes or over lists")
        if not (lane or target in self.kinds):
            self.locals.append(target)
            self.kinds[target] = float
        lines = []
        for name in lists:
            self.lane = lane
            body = self.block(node.body)
            self.lane = False
            head = [] if lane else [f"    {target} = {name}[i];"]
            lines += ["for (i = 0; i < m; i++) {", *head, *_indent(body), "}"]
        return lines

    def overflow(self, node) -> list:
        handler = node.handlers[0] if len(node.handlers) == 1 else None
        if (self.over or node.orelse or node.finalbody or handler is None or handler.name
                or not (isinstance(handler.type, ast.Name) and handler.type.id == "OverflowError")
                or not all(isinstance(stmt, ast.Assign) for stmt in node.body)
                or not _stored(node.body) <= _stored(handler.body)):
            raise _Refused("a try other than try/except OverflowError that assigns again")
        self.over = True
        fast, scalar = self.block(node.body), self.block(handler.body)
        self.over = False
        return ["over = 0;", *fast, "if (over) {", *_indent(scalar), "}"]

    def code(self, failure: str) -> int:
        """The code of failure, a lambda's source: its line in raises."""
        self.raises += [] if failure in self.raises else [failure]
        return self.raises.index(failure) + 1

    def check(self) -> list:
        return ["if (zdiv)", f"    return {self.code(_ZERO_DIVIDED)};"]

    def fail(self, exc) -> list:
        if not (isinstance(exc, ast.Call) and getattr(exc.func, "id", None) in _EXCEPTIONS):
            raise _Refused("a raise other than of DivergenceError or StepSizeError")
        names = list(dict.fromkeys(node.id for node in ast.walk(exc)
                                   if isinstance(node, ast.Name) and node is not exc.func))
        failure = f"lambda {', '.join(names)}: {ast.unparse(exc)}"
        if len(names) > 2 or not failure.isascii():
            raise _Refused(f"a raise that reads {names}")
        return [*self.check(), *(f"o->at[{j}] = {self.typed(ast.Name(name), float)};"
                                 for j, name in enumerate(names)),
                f"return {self.code(failure)};"]

    def sample(self, t, *buffers) -> list:
        if self.lane or self.over or not self.arrays.issuperset(buffers):
            raise _Refused("a sample other than of three buffers")
        return [*self.check(), f"if (sample(o, m, {self.typed(ast.Name(t), float)}, "
                               f"{', '.join(buffers)}))", f"    return {self.code(_NO_MEMORY)};"]

    def finish(self, node) -> list:
        done = _RETURN.fullmatch(ast.unparse(node))
        if not (done and all(self.kinds.get(name) is int for name in done.groups()[:3])
                and self.arrays.issuperset(done.groups()[3:])):
            raise _Refused("a return other than of the samples, three counters, KX and KY")
        return [*self.check(), "resize(o, m, o->n);  /* as far as the allocator trims */",
                *(f"o->counts[{j}] = {name};" for j, name in enumerate(done.groups()[:3])),
                f"o->k[0] = {done[4]};", f"o->k[1] = {done[5]};", "return 0;"]

    def expr(self, node) -> str:
        return self.value(node)[0]

    def typed(self, node, *kinds) -> str:
        text, kind = self.value(node)
        if kind not in kinds:
            raise _Refused(f"{ast.unparse(node)}, a {kind.__name__}")
        return text

    def value(self, node) -> tuple:
        """(C text, kind) of an expression, its kind float, int or bool."""
        if isinstance(node, ast.Constant) and (
                type(node.value) is float and math.isfinite(node.value)
                or type(node.value) is int and abs(node.value) < 2 ** 31):
            return repr(node.value), type(node.value)  # the repr reads back as the same double
        if isinstance(node, ast.Name) and node.id in self.kinds:
            return node.id, self.kinds[node.id]
        if (isinstance(node, ast.Subscript) and self.lane and getattr(node.slice, "id", None) == "i"
                and getattr(node.value, "id", None) in self.arrays):
            return f"{node.value.id}[i]", float
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            text, kind = self.value(node.operand)
            if kind is not bool:
                return f"(-{text})", kind
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            return f"(!{self.typed(node.operand, bool)})", bool
        if isinstance(node, ast.BoolOp):
            return "(" + _BOOL[type(node.op)].join(self.typed(v, bool) for v in node.values) + ")", bool
        if isinstance(node, ast.Compare) and all(type(op) in _COMPARE for op in node.ops):
            sides = [self.value(side) for side in (node.left, *node.comparators)]
            if len({kind for _, kind in sides}) == 1 and sides[0][1] is not bool:
                parts = [f"({a} {_COMPARE[type(op)]} {b})"
                         for (a, _), op, (b, _) in zip(sides, node.ops, sides[1:])]
                # a < b < c is a < b and b < c
                return parts[0] if len(parts) == 1 else "(" + " && ".join(parts) + ")", bool
        if isinstance(node, ast.BinOp):
            return self.binop(node)
        if isinstance(node, ast.IfExp):
            test, positive = self.typed(node.test, bool), self.positive
            positive_name = re.fullmatch(r"\((\w+) > 0\.0\)", test)
            self.positive = positive_name and positive_name[1]
            (body, kind), self.positive = self.value(node.body), positive
            return f"({test} ? {body} : {self.typed(node.orelse, kind)})", kind
        if isinstance(node, ast.Call) and not node.keywords:
            return self.call(getattr(node.func, "id", None), node.args)
        raise _Refused(ast.unparse(node))

    def binop(self, node) -> tuple:
        (left, kind), (right, other) = self.value(node.left), self.value(node.right)
        op, exponent = type(node.op), getattr(node.right, "operand", node.right)
        if op is ast.Pow and kind is other is float and (self.over or (
                getattr(node.left, "id", None) == self.positive and isinstance(exponent, ast.Constant)
                and abs(exponent.value) <= 0.5)):
            return (f"power({left}, {right}, &over)" if self.over else f"pow({left}, {right})"), float
        if op is ast.Div and float in (kind, other) and bool not in (kind, other):
            return f"DIV({left}, {right})", float
        if op in _BINOP and kind is other is not bool and (op is not ast.Mod or kind is int):
            return f"({left} {_BINOP[op]} {right})", kind
        raise _Refused(f"{op.__name__} of {left} and {right}")

    def call(self, func, args) -> tuple:
        if func == "len" and len(args) == 1 and ast.unparse(args[0]) in self.lists:
            return "m", int
        texts = [self.typed(arg, float) for arg in args]
        if func in _ONE and len(texts) == 1:
            return f"{_ONE[func][0]}({texts[0]})", _ONE[func][1]
        if func == "power" and len(texts) == 2 and self.over:
            return f"power({texts[0]}, {texts[1]}, &over)", float
        if func not in _CALLS or len(texts) < 2:
            raise _Refused(f"call of {func}")
        # CPython keeps the running result unless an item beats it strictly
        return functools.reduce(lambda out, arg: f"{_CALLS[func]}({out}, {arg})", texts), float


def _indent(lines) -> list:
    return ["    " + line for line in lines]


def _stored(body) -> set:
    """The names that the statements body assign."""
    return {node.id for stmt in body for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}


def _prox_params(source: str, params: tuple) -> tuple:
    """The parameters that the prox source reads, as (name, is_array) in the
    order of params: one that it subscripts (name[i]) is an array of
    doubles, else a double.  A parameter name must be an ASCII identifier."""
    if not all(name.isidentifier() and name.isascii() for name in params):
        raise _Refused(f"parameters {params}")
    read = {node.id for node in ast.walk(ast.parse(source, mode="eval"))
            if isinstance(node, ast.Name)}
    return tuple((name, name in dynamics._subscripted(source)) for name in params if name in read)


def c_source(v) -> str:
    """The C source of the DP5 kernel of variant v (a dynamics._Variant on
    float lanes), whose params holds every parameter of v, in its order, and
    which declares those that its prox source reads: the Python kernel's
    text after its prelude, translated.  Raises _Refused when the translator
    refuses it."""
    used = _prox_params(v.prox_source, v.prox_params)
    index = {name: j for j, name in enumerate(v.prox_params)}
    params = [f"    const double *prox_{name} = params[{index[name]}];" if array
              else f"    const double prox_{name} = params[{index[name]}][0];"
              for name, array in used]
    translate = _Translator(
        {*dynamics._NUMBERS, *(f"prox_{name}" for name, array in used if not array)},
        frozenset({*_BUFFERS[:4], *(f"prox_{name}" for name, array in used if array)}),
        frozenset(_BUFFERS), {"max_steps", "stride"})
    body = ast.parse(dynamics._source("rk45_adaptive", v)).body[0].body
    prelude = [ast.dump(stmt) for stmt in ast.parse(dynamics._prelude_src(v)).body]
    if [ast.dump(stmt) for stmt in body[:len(prelude)]] != prelude:
        raise _Refused("a kernel that does not open with its prelude")
    lines = "\n".join(_indent(translate.block(body[len(prelude):])))
    words = set(re.findall(r"\w+", lines))
    locals_ = [f"    double *{name} = w + {j} * m;" for j, name in enumerate(_BUFFERS)]
    for kind, c_kind in ((float, "double"), (int, "long long")):
        names = [name for name in translate.locals if translate.kinds[name] is kind]
        locals_ += [textwrap.fill(", ".join(names) + ";", 88, initial_indent=f"    {c_kind} ",
                                  subsequent_indent="        ")] if names else []
    return string.Template(_TEMPLATE).substitute(
        numbers="\n".join(f"    const double {name} = numbers[{j}];"
                          for j, name in enumerate(dynamics._NUMBERS) if name in words),
        params="\n".join(params) or "    (void)params;  /* a prox without parameters */",
        locals="\n".join(locals_),
        # each failure a line of a C string: ASCII, with ?, \ and " escaped
        raises="\n".join('    "{}\\n"'.format(re.sub(r'[?\\"]', r"\\\g<0>", failure))
                         for failure in translate.raises),
        body=lines)


# ------------------------------------------------------------------ building


def _compiler():
    """The path of the system C compiler, cc on PATH, or None.  It looks the
    name up and starts no process."""
    return shutil.which("cc")


@functools.lru_cache(maxsize=None)
def _private_dir() -> str:
    """A temporary directory of mode 0700 for this process, deleted at exit."""
    path = tempfile.mkdtemp(prefix="proxdyn-")
    atexit.register(shutil.rmtree, path, True)
    return path


def _cache_dir() -> str:
    """$XDG_CACHE_HOME/proxdyn, or ~/.cache/proxdyn when XDG_CACHE_HOME is
    unset, empty or relative, made with mode 0700 or set to it; the private
    directory of the process when ~ does not expand to an absolute path, or
    that path is not a directory of this user (a symlink is not), or cannot
    be made or set to 0700."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(base):  # no HOME, and a uid with no passwd entry
        return _private_dir()
    path = os.path.join(base, "proxdyn")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        st = os.lstat(path)
        if not stat.S_ISDIR(st.st_mode) or st.st_uid != os.getuid():
            return _private_dir()
        if stat.S_IMODE(st.st_mode) != 0o700:
            os.chmod(path, 0o700)
        return path
    except OSError:
        return _private_dir()


def _build(directory: str, name: str, source, command: list) -> str:
    """The library name in directory, compiled from source unless it is
    there: a str, or a function that makes it, called only for a build."""
    path = os.path.join(directory, name)
    if not os.path.exists(path):
        import subprocess  # only a build starts a process

        text = source if isinstance(source, str) else source()
        with tempfile.TemporaryDirectory(dir=directory) as tmp:
            src, lib = os.path.join(tmp, "kernel.c"), os.path.join(tmp, "kernel.so")
            with open(src, "w") as fh:
                fh.write(text)
            try:
                res = subprocess.run([*command, "-o", lib, src, "-lm"],
                                     stdin=subprocess.DEVNULL, capture_output=True,
                                     timeout=_BUILD_TIMEOUT_S)
            except subprocess.SubprocessError as exc:
                raise _BuildFailed(str(exc)) from exc
            if res.returncode != 0:
                lines = res.stderr.decode(errors="replace").splitlines()
                errors = [line for line in lines if "error" in line] + lines
                raise _BuildFailed(errors[0] if errors else f"exit status {res.returncode}")
            os.replace(lib, path)
    return path


def _load(key: str, name: str, source=None):
    """The loaded library named by the SHA-256 of key, the compiler command
    and the platform, built into the cache first from source (by default
    key itself) when it is not there, or None when there is no compiler or
    it cannot be built; a failed build warns, naming the library by name."""
    cc = _compiler()
    if cc is None:
        return None
    command = [cc, *_FLAGS]
    named = "\0".join([key, *command, os.path.realpath(cc), sys.platform, platform.machine()])
    library = sha256(named.encode()).hexdigest() + ".so"
    for directory in (_cache_dir, _private_dir):
        try:
            return ctypes.CDLL(_build(directory(), library, source or key, command))
        except OSError:  # the directory, or the library in it, cannot be used
            continue
        except _BuildFailed as exc:
            warnings.warn(f"proxdyn: {name} did not build, so it runs in Python: {exc}",
                          stacklevel=2)
            return None
    return None


# --------------------------------------------------------------- the kernel


_DOUBLES = ctypes.POINTER(ctypes.c_double)


class _Out(ctypes.Structure):
    """The C kernel's struct out."""
    _fields_ = [("buf", ctypes.c_void_p * 4), ("at", ctypes.c_double * 2),
                ("n", ctypes.c_longlong), ("cap", ctypes.c_longlong),
                ("counts", ctypes.c_longlong * 3), ("k", _DOUBLES * 2)]


class _Samples:
    """count doubles of a C kernel's buffer at address, as numpy reads them
    (np.asarray), freed when the last array over them goes."""

    def __init__(self, free, address: int, count: int):
        self.free, self.address = free, address
        self.__array_interface__ = {"data": (address, False), "shape": (count,),
                                    "typestr": np.dtype(float).str, "version": 3}

    def __del__(self):
        self.free(self.address)


class CompiledKernel:
    """The compiled DP5 kernel of one variant, called as the Python kernel
    is, on the inputs of dynamics._inputs: (X, Y, numbers, counts, params)
    -> (samples, counts, KX, KY).  Every call runs in C and raises what the
    Python kernel raises."""

    def __init__(self, lib):
        self.library = lib._name  # the path of the shared library
        self.run = lib.proxdyn_dp5  # returns an int, as ctypes takes it
        self.run.argtypes = [ctypes.c_int, _DOUBLES, _DOUBLES, ctypes.POINTER(ctypes.c_longlong),
                             ctypes.POINTER(_DOUBLES), ctypes.POINTER(_Out)]
        self.free = lib.proxdyn_free
        self.free.restype = None
        self.free.argtypes = [ctypes.c_void_p]
        self.raises = ctypes.c_char_p.in_dll(lib, "proxdyn_raises").value.decode().splitlines()

    @staticmethod
    def _arguments(X, Y, numbers, counts, params):
        """(m, w, q, counts, prm) for the C kernel and the parameter arrays
        that prm points into."""
        m = len(X)
        w = (ctypes.c_double * (len(_BUFFERS) * m))()
        w[:2 * m] = [*X, *Y]
        keep = [(ctypes.c_double * len(p))(*p) if isinstance(p, list) else (ctypes.c_double * 1)(p)
                for p in params]
        prm = (_DOUBLES * len(keep))(*(ctypes.cast(a, _DOUBLES) for a in keep))
        return (m, w, (ctypes.c_double * len(numbers))(*numbers),
                (ctypes.c_longlong * 2)(*counts), prm, keep)

    def __call__(self, X, Y, numbers, counts, params):
        m, w, q, n, prm, keep = self._arguments(X, Y, numbers, counts, params)
        out = _Out()
        code = self.run(m, w, q, n, prm, ctypes.byref(out))
        if code == _OK:
            samples = [np.asarray(_Samples(self.free, address, out.n * (m if j else 1)))
                       for j, address in enumerate(out.buf)]
            return samples, tuple(out.counts), out.k[0][:m], out.k[1][:m]
        for address in out.buf:
            self.free(address)
        # the exception of the raise that code stands for, from the text the
        # library holds (a library of the cache is trusted as its machine code
        # is); the lambda of a division by zero raises Python's own
        failure = eval(self.raises[code - 1], dict(_EXCEPTIONS))
        raise failure(*out.at[:failure.__code__.co_argcount])


def dp5_kernel(v):
    """The compiled DP5 kernel of variant v (float lanes), or None when the
    translator refuses its prox source, there is no C compiler or the build
    fails.  Its library is named by what its C source is made from, the
    Python kernel's text and the SHA-256 of this module's file (the
    translator and _TEMPLATE), so a cached one loads without a translation."""
    try:
        lib = _load(dynamics._source("rk45_adaptive", v) + "\0" + _own_digest(),
                    f"the compiled DP5 kernel of the prox source {v.prox_source!r}",
                    lambda: c_source(v))
    except (_Refused, SyntaxError):
        return None
    return None if lib is None else CompiledKernel(lib)


@functools.lru_cache(maxsize=None)
def _own_digest() -> str:
    """The SHA-256 of this module's file, as its loader reads it."""
    return sha256(__loader__.get_data(__file__)).hexdigest()
