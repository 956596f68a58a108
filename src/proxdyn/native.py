"""Compiled DP5 kernels, the generated stepper emitted as C, and the build
and cache of the package's C libraries, the CSV writer's too.

A DP5 (rk45_adaptive) variant whose prox carries a scalar source,
prox.coordinate_source, also has a C form, which integrate and the public
rhs_* run in place of the generated Python kernel whenever it builds.  It
computes the same bits: each C operation is one IEEE double operation of
the Python kernel, in the same order, with the same operands.  Only the
DP5 loop's skeleton is written in C, once below (_TEMPLATE): the step-size
controller, the error norm's sum, the trust-region guard, the sample
buffers and the failure codes.  The first stage and the step, with their
stage constants, the right-hand side, the inlined prox and the tableau's
repr literals, are the Python kernel's own text (dynamics._k0_src and
_step_src), put into C by a small translator (_Translator).  It takes
assignments, the loop over the m float lanes, conditional expressions,
comparisons, + - * /, unary minus, float constants, names, param[i] and
min, max and abs with CPython's choice among equal or unordered
arguments; and the stage constants' try/except OverflowError, whose ** and
power() take libm's pow as Python's ** takes it, and whose except branch
runs where a power overflows.  It refuses anything else, and a variant
that it refuses keeps its Python kernel.
It takes the Python kernel's inputs (dynamics._inputs), and every call
runs in C, with the Python kernel's outcome, bit for bit: the samples, the
step counters, KX and KY, each DivergenceError or StepSizeError with its
message, t_last and h, and Python's own ZeroDivisionError where it divides
by zero.

The C source is compiled with the system C compiler, cc on PATH, as

    cc -O2 -fPIC -shared -ffp-contract=off

(no fast-math, no -march, no contraction into fused multiply-adds) into a
shared library loaded through ctypes, the first time integrate or an rhs_*
asks for the variant; a host whose C keeps doubles in wider registers
(FLT_EVAL_METHOD other than 0, as 32-bit x86 with x87 does) fails that
build, by an #error in the source, and keeps the Python kernel.  The CSV
writer's fixed source, csvio._SOURCE, is built by the same _load on the
first write of a process.  Nothing compiles or starts a process at import,
in build_run or in validation.
The library is kept in a cache directory, $XDG_CACHE_HOME/proxdyn or else
~/.cache/proxdyn, of mode 0700, under the SHA-256 of its source, the
compiler command and the platform, written to a temporary name and moved
into place with os.replace, so processes that build the same variant at
once do not clash.  When that directory cannot be used, a private
temporary directory of the process takes its place and is deleted at
exit.  Deleting the cache is always safe: a missing library is built
again.  Without a C compiler the variant runs its Python kernel,
which is also the reference the tests compare the compiled kernel with; so
it does when a build fails, after a UserWarning that names the kernel and
gives the compiler's first error line.  The samples stay in the C buffers,
trimmed to their rows, which the returned arrays read and which are freed
when the last array over them goes.
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

# the kernel's results, as the C enum below numbers them
_OK, _BUDGET, _NONFINITE, _STUCK, _TRUST, _COLLAPSED, _ZERODIV, _NOMEM = range(8)

try:  # the text of Python's own ZeroDivisionError for floats, which varies by version
    1.0 / 0.0
except ZeroDivisionError as exc:
    _ZERO_DIVISION = str(exc)

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
   and the m coordinates of x, y and xdot, the step counters, and the t and
   h an error names */
struct out {
    double *buf[4];
    long long n, cap, accepted, rejected, nfev;
    double t, h;
};

enum { OK, BUDGET, NONFINITE, STUCK, TRUSTREGION, COLLAPSED, ZERODIV, NOMEM };

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

/* a / b, or *zdiv set where b is zero and Python raises ZeroDivisionError */
static inline double quotient(double a, double b, int *zdiv)
{
    if (b == 0.0) {
        *zdiv = 1;
        return 0.0;
    }
    return a / b;
}

/* min and max as CPython's builtins pick among two floats */
static inline double pymin(double a, double b) { return b < a ? b : a; }
static inline double pymax(double a, double b) { return b > a ? b : a; }

#define DIV(a, b) quotient((a), (b), &zdiv)

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
    if (o->n == o->cap) {
        if (resize(o, m, o->cap ? 2 * o->cap : 256))
            return 1;
        o->cap = o->cap ? 2 * o->cap : 256;
    }
    for (j = 0; j < 4; j++)
        memcpy(o->buf[j] + o->n * (j ? m : 1), row[j], (j ? m : 1) * sizeof(double));
    o->n++;
    return 0;
}

void proxdyn_free(double *p)
{
    free(p);
}

#define FAIL(code, tl) do { o->t = (tl); o->h = h; return (code); } while (0)

/* dynamics._DP5_TEMPLATE on m lanes, its first stage and its step translated
   from the Python kernel's text.  w holds X, Y, KX, KY, XN, YN, KXN, KYN, SX
   and SY, m doubles each, X and Y set to the start; KX and KY end at the
   derivative at the last point.  q holds the numbers in the order of
   dynamics._NUMBERS, counts max_steps and the sample stride, prm the prox's
   parameters, one array each */
int proxdyn_dp5(int m, double *w, const double *q, const long long *counts,
                const double *const *prm, struct out *o)
{
$numbers
$params
    const double T = horizon, nthreshold = -threshold;
    const long long max_steps = counts[0], stride = counts[1];
    double *X = w, *Y = w + m, *KX = w + 2 * m, *KY = w + 3 * m, *XN = w + 4 * m;
    double *YN = w + 5 * m, *KXN = w + 6 * m, *KYN = w + 7 * m, *SX = w + 8 * m;
    double *SY = w + 9 * m, *swap;
    double t = t0, h, total, err_norm, factor, t_prev;
$locals
    long long accepted = 0, rejected = 0, nfev = 1;
    const int n2 = 2 * m;
    int i, over, zdiv = 0;
$k0
    if (zdiv)
        return ZERODIV;
    if (sample(o, m, t, X, Y, KX))
        return NOMEM;
    h = (T - t) / 100.0;  /* h = min((T - t) / 100.0, 1.0, max_step) */
    if (1.0 < h)
        h = 1.0;
    if (max_step < h)
        h = max_step;
    while (t < T) {
        if (accepted + rejected >= max_steps)
            FAIL(BUDGET, t);
        if (T - t < h)
            h = T - t;
$step
        if (zdiv)
            return ZERODIV;
        nfev += 6;
        /* the 2m squares summed left to right, x block first */
        total = 0.0;
        for (i = 0; i < m; i++)
            total += SX[i];
        for (i = 0; i < m; i++)
            total += SY[i];
        err_norm = sqrt(total / n2);
        if (!isfinite(err_norm))
            FAIL(NONFINITE, t);
        if (err_norm <= 1.0) {
            t_prev = t;
            t = (T - t - h) <= 1e-15 * T ? T : t + h;
            if (t == t_prev)
                FAIL(STUCK, t);
            swap = X; X = XN; XN = swap;
            swap = Y; Y = YN; YN = swap;
            swap = KX; KX = KXN; KXN = swap;
            swap = KY; KY = KYN; KYN = swap;
            for (i = 0; i < m; i++)
                if (!(nthreshold <= X[i] && X[i] <= threshold))
                    FAIL(TRUSTREGION, t_prev);
            for (i = 0; i < m; i++)
                if (!(nthreshold <= Y[i] && Y[i] <= threshold))
                    FAIL(TRUSTREGION, t_prev);
            accepted += 1;
            if ((t >= T || accepted % stride == 0) && sample(o, m, t, X, Y, KX))
                return NOMEM;
        } else {
            rejected += 1;
        }
        factor = err_norm > 0.0 ? 0.9 * pow(err_norm, -0.2) : 5.0;
        h *= !(factor > 0.2) ? 0.2 : factor < 5.0 ? factor : 5.0;
        if (max_step < h)
            h = max_step;
        if (h < $min_step)
            FAIL(COLLAPSED, t);
    }
    memmove(w + 2 * m, KX, m * sizeof(double));
    memmove(w + 3 * m, KY, m * sizeof(double));
    resize(o, m, o->n);  /* trimmed to the samples, as far as the allocator does */
    o->accepted = accepted;
    o->rejected = rejected;
    o->nfev = nfev;
    return OK;
}
"""

class _Refused(Exception):
    """A kernel text that the translator refuses, when the C source is built."""


class _BuildFailed(Exception):
    """The compiler exited with an error; the message is the first line of
    its stderr that names an error, or else its first line."""


_COMPARE = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
            ast.NotEq: "!="}
_BINOP = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*"}
_CALLS = {"min": "pymin", "max": "pymax"}


class _Translator:
    """Python statements on floats to C statements of the same IEEE
    operations in the same order, each operation parenthesized as the Python
    tree groups it.  It reads names, arrays as name[i] in a lane, and the
    names that it assigns, each a C double listed in locals; lists are the
    C buffers that a lane fills, NAME = [] left out and NAME.append(expr)
    once per lane as NAME[i] = expr.  A tuple assignment may not read its
    targets, and the handler of try/except OverflowError must assign each
    name that the try does: over = 0, the try, then the handler where a **
    or power() overflowed.  Anything else, ** outside that try too, raises
    _Refused."""

    def __init__(self, names, arrays=frozenset(), lists=frozenset()):
        self.names, self.arrays, self.lists = set(names), arrays, lists
        self.locals, self.empty = [], set()
        self.lane = self.over = False  # inside the lane loop, inside the try

    def block(self, body) -> list:
        return [line for stmt in body for line in self.statement(stmt)]

    def statement(self, node) -> list:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            return self.assign(node.targets[0], node.value)
        if isinstance(node, ast.For):
            if not (isinstance(node.target, ast.Name) and node.target.id == "i"
                    and isinstance(node.iter, ast.Name) and node.iter.id == "lanes"
                    and not node.orelse and not self.lane):
                raise _Refused("a loop other than for i in lanes")
            self.lane = True
            body = self.block(node.body)
            self.lane = False
            return ["for (i = 0; i < m; i++) {", *("    " + line for line in body), "}"]
        if isinstance(node, ast.Try):
            return self.overflow(node)
        call = node.value if isinstance(node, ast.Expr) else None
        if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and call.func.attr == "append" and isinstance(call.func.value, ast.Name)
                and call.func.value.id in self.empty and self.lane
                and len(call.args) == 1 and not call.keywords):
            self.empty.remove(call.func.value.id)
            return [f"{call.func.value.id}[i] = {self.expr(call.args[0])};"]
        raise _Refused(f"the statement {type(node).__name__}")

    def assign(self, target, value) -> list:
        pairs = (list(zip(target.elts, value.elts)) if isinstance(target, ast.Tuple)
                 and isinstance(value, ast.Tuple) and len(target.elts) == len(value.elts)
                 else [(target, value)])
        names = [name.id for name, _ in pairs if isinstance(name, ast.Name)]
        if len(names) < len(pairs):
            raise _Refused("an assignment other than name = expr")
        if all(isinstance(v, ast.List) and not v.elts for _, v in pairs):
            if self.lane or not set(names) <= self.lists:
                raise _Refused(f"lists {names}")
            self.empty.update(names)
            return []
        read = ({node.id for _, v in pairs for node in ast.walk(v) if isinstance(node, ast.Name)}
                if len(pairs) > 1 else set())
        if read.intersection(names) or self.names.intersection(names):
            raise _Refused(f"an assignment to {names}")
        lines = [f"{name} = {self.expr(v)};" for name, (_, v) in zip(names, pairs)]
        self.locals += [name for name in names if name not in self.locals]
        return lines

    def overflow(self, node) -> list:
        handler = node.handlers[0] if len(node.handlers) == 1 else None
        if (self.over or node.orelse or node.finalbody or handler is None or handler.name
                or not (isinstance(handler.type, ast.Name) and handler.type.id == "OverflowError")
                or not _stored(node.body) <= _stored(handler.body)):
            raise _Refused("a try other than try/except OverflowError that assigns again")
        self.over = True
        fast, scalar = self.block(node.body), self.block(handler.body)
        self.over = False
        return ["over = 0;", *fast, "if (over) {", *("    " + line for line in scalar), "}"]

    def expr(self, node) -> str:
        if isinstance(node, ast.Constant):
            # a float literal's repr reads back as the same double in C; an
            # int or a bool would not take Python's int arithmetic with it
            if type(node.value) is not float or not math.isfinite(node.value):
                raise _Refused(f"constant {node.value!r}")
            return repr(node.value)
        if isinstance(node, ast.Name):
            if node.id not in self.names and node.id not in self.locals:
                raise _Refused(f"name {node.id}")
            return node.id
        if isinstance(node, ast.Subscript):
            if not (isinstance(node.value, ast.Name) and node.value.id in self.arrays
                    and isinstance(node.slice, ast.Name) and node.slice.id == "i" and self.lane):
                raise _Refused("a subscript other than name[i] in a lane")
            return f"{node.value.id}[i]"
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return f"(-{self.expr(node.operand)})"
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            return f"DIV({self.expr(node.left)}, {self.expr(node.right)})"
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and self.over:
            return f"power({self.expr(node.left)}, {self.expr(node.right)}, &over)"
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOP:
            return f"({self.expr(node.left)} {_BINOP[type(node.op)]} {self.expr(node.right)})"
        if isinstance(node, ast.IfExp):
            return (f"({self.test(node.test)} ? {self.expr(node.body)}"
                    f" : {self.expr(node.orelse)})")
        if isinstance(node, ast.Call):
            return self.call(node)
        raise _Refused(type(node).__name__)

    def test(self, node) -> str:
        """A comparison, chained as Python chains it: a < b < c is a < b and b < c."""
        if not isinstance(node, ast.Compare) or not all(type(op) in _COMPARE for op in node.ops):
            raise _Refused("a test other than a comparison")
        sides = [self.expr(side) for side in (node.left, *node.comparators)]
        return "(" + " && ".join(f"({a} {_COMPARE[type(op)]} {b})"
                                 for a, op, b in zip(sides, node.ops, sides[1:])) + ")"

    def call(self, node) -> str:
        func = node.func.id if isinstance(node.func, ast.Name) else None
        if node.keywords or any(isinstance(arg, ast.Starred) for arg in node.args):
            raise _Refused("call arguments")
        if func == "abs" and len(node.args) == 1:
            return f"fabs({self.expr(node.args[0])})"
        if func == "power" and len(node.args) == 2 and self.over:
            return f"power({self.expr(node.args[0])}, {self.expr(node.args[1])}, &over)"
        if func not in _CALLS or len(node.args) < 2:
            raise _Refused(f"call of {func}")
        # CPython keeps the running result unless an item beats it strictly
        out = self.expr(node.args[0])
        for arg in node.args[1:]:
            out = f"{_CALLS[func]}({out}, {self.expr(arg)})"
        return out


def _stored(body) -> set:
    """The names that the statements body assign."""
    return {node.id for stmt in body for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}


def _prox_params(source: str, params: tuple) -> tuple:
    """The parameters that the prox source reads, as (name, is_array) in the
    order of params: one that it subscripts (name[i]) is an array of
    doubles, else a double.  Refuses a source that reads any name but u,
    lam, i, min, max, abs and its parameters, which would read the kernel's
    own names, and parameter names that are not ASCII identifiers; the
    translator refuses the rest."""
    names = {node.id for node in ast.walk(ast.parse(source, mode="eval"))
             if isinstance(node, ast.Name)}
    if not (names <= {"u", "lam", "i", "min", "max", "abs", *params}
            and all(name.isidentifier() and name.isascii() for name in params)):
        raise _Refused(f"names {sorted(names)} with parameters {params}")
    arrays = dynamics._subscripted(source)
    return tuple((name, name in arrays) for name in params if name in names)


def c_source(v) -> str:
    """The C source of the DP5 kernel of variant v (a dynamics._Variant on
    float lanes), whose prm holds every parameter of v, in its order, and
    which declares those that its prox source reads; its first stage and its
    step are the Python kernel's (dynamics._k0_src and _step_src),
    translated.  Raises _Refused when the translator refuses them."""
    used = _prox_params(v.prox_source, v.prox_params)
    index = {name: j for j, name in enumerate(v.prox_params)}
    params = [f"    const double *prox_{name} = prm[{index[name]}];" if array
              else f"    const double prox_{name} = prm[{index[name]}][0];"
              for name, array in used]
    translate = _Translator(
        {*dynamics._NUMBERS, "t", "h", *(f"prox_{name}" for name, array in used if not array)},
        frozenset({"X", "Y", "KX", "KY", *(f"prox_{name}" for name, array in used if array)}),
        frozenset({"X", "Y", "KX", "KY", "XN", "YN", "KXN", "KYN", "SX", "SY"}))

    def translated(src: str, indent: int) -> str:
        tree = ast.parse("\n".join(dynamics._expand(src, v, dynamics._tokens(v))))
        return "\n".join(" " * indent + line for line in translate.block(tree.body))

    k0, step = translated(dynamics._k0_src(v, "t"), 4), translated(dynamics._step_src(v), 8)
    words = set(re.findall(r"\w+", _TEMPLATE + k0 + step))
    numbers = [f"    const double {name} = q[{j}];"
               for j, name in enumerate(dynamics._NUMBERS) if name in words]
    return string.Template(_TEMPLATE).substitute(
        min_step=repr(dynamics._MIN_STEP), numbers="\n".join(numbers),
        params="\n".join(params) or "    (void)prm;  /* a prox without parameters */",
        locals=textwrap.fill(", ".join(translate.locals) + ";", 88, initial_indent="    double ",
                             subsequent_indent="        "),
        k0=k0, step=step)


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


def _build(directory: str, name: str, source: str, command: list) -> str:
    """The library name in directory, compiled from source unless it is there."""
    path = os.path.join(directory, name)
    if not os.path.exists(path):
        import subprocess  # only a build starts a process

        with tempfile.TemporaryDirectory(dir=directory) as tmp:
            src, lib = os.path.join(tmp, "kernel.c"), os.path.join(tmp, "kernel.so")
            with open(src, "w") as fh:
                fh.write(source)
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


def _load(source: str, name: str):
    """The loaded library of source, built into the cache first when it is
    not there, or None when there is no compiler or it cannot be built; a
    failed build warns, naming the library by name."""
    cc = _compiler()
    if cc is None:
        return None
    command = [cc, *_FLAGS]
    key = "\0".join([source, *command, os.path.realpath(cc), sys.platform, platform.machine()])
    library = sha256(key.encode()).hexdigest() + ".so"
    for directory in (_cache_dir, _private_dir):
        try:
            return ctypes.CDLL(_build(directory(), library, source, command))
        except OSError:  # the directory, or the library in it, cannot be used
            continue
        except _BuildFailed as exc:
            warnings.warn(f"proxdyn: {name} did not build, so it runs in Python: {exc}",
                          stacklevel=2)
            return None
    return None


# --------------------------------------------------------------- the kernel


class _Out(ctypes.Structure):
    """The C kernel's struct out."""
    _fields_ = ([("buf", ctypes.c_void_p * 4)]
                + [(name, ctypes.c_longlong) for name in ("n", "cap", "accepted", "rejected",
                                                          "nfev")]
                + [("t", ctypes.c_double), ("h", ctypes.c_double)])


class _Samples:
    """count doubles of a C kernel's buffer at address, as numpy reads them
    (np.asarray), freed when the last array over them goes."""

    def __init__(self, free, address: int, count: int):
        self.free, self.address = free, address
        self.__array_interface__ = {"data": (address, False), "shape": (count,),
                                    "typestr": np.dtype(float).str, "version": 3}

    def __del__(self):
        self.free(self.address)


_DOUBLES = ctypes.POINTER(ctypes.c_double)


class CompiledKernel:
    """The compiled DP5 kernel of one variant, called as the Python kernel
    is, on the inputs of dynamics._inputs: (X, Y, numbers, counts, params)
    -> (samples, counts, KX, KY).  Every call runs in C and raises what the
    Python kernel raises."""

    def __init__(self, lib):
        self.library = lib._name  # the path of the shared library
        self.run = lib.proxdyn_dp5
        self.run.restype = ctypes.c_int
        self.run.argtypes = [ctypes.c_int, _DOUBLES, _DOUBLES, ctypes.POINTER(ctypes.c_longlong),
                             ctypes.POINTER(_DOUBLES), ctypes.POINTER(_Out)]
        self.free = lib.proxdyn_free
        self.free.restype = None
        self.free.argtypes = [ctypes.c_void_p]

    @staticmethod
    def _arguments(X, Y, numbers, counts, params):
        """(m, w, q, counts, prm) for the C kernel and the parameter arrays
        that prm points into."""
        m = len(X)
        w = (ctypes.c_double * (10 * m))()
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
            return (samples, (out.accepted, out.rejected, out.nfev),
                    w[2 * m:3 * m], w[3 * m:4 * m])
        for address in out.buf:
            self.free(address)
        if code == _ZERODIV:
            raise ZeroDivisionError(_ZERO_DIVISION)
        if code == _NOMEM:
            raise MemoryError("no memory for the samples")
        t, h = out.t, out.h
        if code == _BUDGET:
            raise StepSizeError(f"step budget exhausted at t = {t:.6g}, h = {h:.3g}", t, h)
        if code == _NONFINITE:
            raise DivergenceError(f"non-finite stage in the step at t = {t:.6g}, h = {h:.3g}",
                                  t, h)
        if code == _STUCK:
            raise StepSizeError(f"step size {h:.3g} does not advance t = {t:.6g}", t, h)
        if code == _TRUST:
            raise DivergenceError(f"state left the trust region after t = {t:.6g}", t, h)
        raise StepSizeError(f"step size collapsed to {h:.3g} at t = {t:.6g}", t, h)


def dp5_kernel(v):
    """The compiled DP5 kernel of variant v (float lanes), or None when the
    translator refuses its prox source, there is no C compiler or the build
    fails."""
    try:
        source = c_source(v)
    except (_Refused, SyntaxError):
        return None
    lib = _load(source, f"the compiled DP5 kernel of the prox source {v.prox_source!r}")
    return None if lib is None else CompiledKernel(lib)
