"""Compiled DP5 kernels: the generated stepper emitted as C.

A DP5 (rk45_adaptive) variant whose prox carries a scalar source,
prox.coordinate_source, also has a C form, which integrate and the public
rhs_* run in place of the generated Python kernel whenever it builds.  It
computes the same bits: each C operation is one IEEE double operation of
the Python kernel, in the same order, with the same operands.  The C form
has four parts:
- the DP5 loop, written once below (_TEMPLATE), with the Dormand-Prince
  tableau of dynamics._DP5_TABLEAU spliced in as repr literals;
- one loop over the m float lanes, one per coordinate;
- the right-hand side and the inlined prox, taken from the
  Python kernel's own dynamics._deriv_src through a small translator from
  Python expressions to C (_Translator), which accepts conditional
  expressions, comparisons, + - * /, unary minus, float constants, names,
  param[i] and min, max and abs with CPython's choice among equal or
  unordered arguments, and refuses anything else; a variant it refuses
  keeps its Python kernel;
- the stage constants of dynamics._consts_src, through libm's pow as
  Python's ** takes it; where a power overflows, where Python's ** raises
  OverflowError, all of that step's constants are recomputed the way the
  scalar forms fn.scalar compute them.
A division by zero, where Python raises ZeroDivisionError, makes the
kernel hand the run to the Python kernel, from its start, which raises
there; so does a number that the C kernel cannot take as Python takes it,
such as a numpy scalar, an int state, start time or prox parameter (which
Python combines with each other as exact ints), or an int that no float
holds exactly.  Every other outcome, the samples,
the step counters, KX and KY, and each DivergenceError or StepSizeError
with its message, t_last and h, is the Python kernel's, bit for bit.

The C source is compiled with the system C compiler, cc on PATH, as

    cc -O2 -fPIC -shared -ffp-contract=off

(no fast-math, no -march, no contraction into fused multiply-adds) into a
shared library loaded through ctypes, the first time integrate or an rhs_*
asks for the variant; a host whose C keeps doubles in wider registers
(FLT_EVAL_METHOD other than 0, as 32-bit x86 with x87 does) fails that
build, by an #error in the source, and keeps the Python kernel.  Nothing compiles or starts a process at import, in
build_run or in validation.  The library is kept in a cache directory,
$XDG_CACHE_HOME/proxdyn or else ~/.cache/proxdyn, of mode 0700, under the
SHA-256 of its source, the compiler command and the platform, written to a
temporary name and moved into place with os.replace, so processes that
build the same variant at once do not clash.  When that directory cannot
be used, a private temporary directory of the process takes its place and
is deleted at exit.  Deleting the cache is always safe: a missing library
is built again.  Without a C compiler, or when a build fails, the variant
runs its Python kernel, which is also the reference the tests compare the
compiled kernel with.
"""

from __future__ import annotations

import ast
import atexit
import ctypes
import functools
import math
import os
import platform
import shutil
import stat
import string
import sys
import tempfile

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
_OK, _BUDGET, _NONFINITE, _STUCK, _TRUST, _COLLAPSED, _PYTHON, _NOMEM = range(8)

# the numbers the kernel takes, in the order of its array q
_NUMBERS = ("T0", "HORIZON", "ATOL", "RTOL", "MAX_STEP", "THRESHOLD", "NALPHA", "BETA",
            "LO", "BC", "BE", "EC", "EE", "LC", "LE")

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

/* what the kernel records: n samples of t and of the m coordinates of x, y
   and xdot in buffers of cap rows, the step counters, and the t and h an
   error names */
struct out {
    double *ts, *xs, *ys, *xdots;
    long long n, cap, accepted, rejected, nfev;
    double t, h;
};

enum { OK, BUDGET, NONFINITE, STUCK, TRUSTREGION, COLLAPSED, PYTHON, NOMEM };
enum { $numbers };

/* Python's float ** for x > 0 and a finite y; *over is set where Python's **
   raises OverflowError: where a finite x gives an infinite power */
static double power(double x, double y, int *over)
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

/* a monomial's scalar form: 0.0 where c is 0, else c * x ** y, inf where the
   power overflows */
static double scalar(double c, double y, double x)
{
    int over = 0;
    return c == 0.0 ? 0.0 : c * power(x, y, &over);
}

/* a / b, or *zdiv set where b is zero and Python raises ZeroDivisionError */
static double quotient(double a, double b, int *zdiv)
{
    if (b == 0.0) {
        *zdiv = 1;
        return 0.0;
    }
    return a / b;
}

/* min and max as CPython's builtins pick among two floats */
static double pymin(double a, double b) { return b < a ? b : a; }
static double pymax(double a, double b) { return b > a ? b : a; }

#define DIV(a, b) quotient((a), (b), zdiv)

/* (kx, ky), the derivative of lane i at (x, y) from the stage constants
   a = -(alpha / t), b, e = eps and l = lambda: dynamics._deriv_src with
   the prox's scalar source, translated */
static inline void deriv(double x, double y, double a, double b, double e, double l,
                         double beta, int i, const double *const *prm, int *zdiv,
                         double *kx, double *ky)
{
    double g;
$params
    (void)i;
    (void)prm;
$deriv
}

/* the stage constants at the times tt[first..last]: ca = -(alpha / t), then
   b, eps and lambda, each its monomial, unless one of the powers overflows,
   when all of them are recomputed as the scalar forms compute them; 1 where
   t is zero */
static int consts(const double *q, const double *tt, int first, int last,
                  double *ca, double *cb, double *ce, double *cl)
{
    int k, over = 0;
    for (k = first; k <= last; k++) {
        cb[k] = q[BC] * power(tt[k], q[BE], &over);
        ce[k] = q[EC] * power(tt[k], q[EE], &over);
        cl[k] = q[LO] + q[LC] * power(tt[k], q[LE], &over);
    }
    if (over)
        for (k = first; k <= last; k++) {
            cb[k] = scalar(q[BC], q[BE], tt[k]);
            ce[k] = scalar(q[EC], q[EE], tt[k]);
            cl[k] = q[LO] + scalar(q[LC], q[LE], tt[k]);
        }
    for (k = first; k <= last; k++) {
        if (tt[k] == 0.0)
            return 1;
        ca[k] = q[NALPHA] / tt[k];
    }
    return 0;
}

static int sample(struct out *o, int m, double t, const double *x, const double *y,
                  const double *xdot)
{
    if (o->n == o->cap) {
        long long cap = o->cap ? 2 * o->cap : 256;
        double *p;
        if (!(p = realloc(o->ts, cap * sizeof(double))))
            return 1;
        o->ts = p;
        if (!(p = realloc(o->xs, cap * m * sizeof(double))))
            return 1;
        o->xs = p;
        if (!(p = realloc(o->ys, cap * m * sizeof(double))))
            return 1;
        o->ys = p;
        if (!(p = realloc(o->xdots, cap * m * sizeof(double))))
            return 1;
        o->xdots = p;
        o->cap = cap;
    }
    o->ts[o->n] = t;
    memcpy(o->xs + o->n * m, x, m * sizeof(double));
    memcpy(o->ys + o->n * m, y, m * sizeof(double));
    memcpy(o->xdots + o->n * m, xdot, m * sizeof(double));
    o->n++;
    return 0;
}

void proxdyn_free(struct out *o)
{
    free(o->ts);
    free(o->xs);
    free(o->ys);
    free(o->xdots);
    o->ts = o->xs = o->ys = o->xdots = NULL;
}

#define FAIL(code, tl) do { o->t = (tl); o->h = h; return (code); } while (0)
/* the derivative at (x, y) from the stage constants of stage k */
#define DERIV(k, x, y, kx, ky) \
    deriv((x), (y), ca[k], cb[k], ce[k], cl[k], beta, i, prm, zdiv, (kx), (ky))

/* dynamics._DP5_TEMPLATE on m lanes.  w holds X, Y, KX, KY, XN, YN, KXN, KYN,
   SX and SY, m doubles each, X and Y set to the start; KX and KY end at the
   derivative at the last point.  counts is max_steps and the sample stride,
   prm the prox's parameters, one array each */
int proxdyn_dp5(int m, double *w, const double *q, const long long *counts,
                const double *const *prm, struct out *o)
{
    const double atol = q[ATOL], rtol = q[RTOL], max_step = q[MAX_STEP], T = q[HORIZON];
    const double threshold = q[THRESHOLD], nthreshold = -threshold, beta = q[BETA];
    const long long max_steps = counts[0], stride = counts[1];
    double *X = w, *Y = w + m, *KX = w + 2 * m, *KY = w + 3 * m, *XN = w + 4 * m;
    double *YN = w + 5 * m, *KXN = w + 6 * m, *KYN = w + 7 * m, *SX = w + 8 * m;
    double *SY = w + 9 * m, *swap;
    double ca[6], cb[6], ce[6], cl[6], tt[6];
    double t = q[T0], h, total, err_norm, factor, t_prev;
    long long accepted = 0, rejected = 0, nfev = 1;
    const int n2 = 2 * m;
    int i, zflag = 0, *zdiv = &zflag;
    tt[0] = t;
    if (consts(q, tt, 0, 0, ca, cb, ce, cl))
        return PYTHON;
    for (i = 0; i < m; i++) {
        DERIV(0, X[i], Y[i], &KX[i], &KY[i]);
    }
    if (zflag)
        return PYTHON;
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
        tt[1] = t + $c1 * h;
        tt[2] = t + $c2 * h;
        tt[3] = t + $c3 * h;
        tt[4] = t + $c4 * h;
        tt[5] = t + $c5 * h;
        if (consts(q, tt, 1, 5, ca, cb, ce, cl))
            return PYTHON;
        for (i = 0; i < m; i++) {
            double x = X[i], y = Y[i], kx0 = KX[i], ky0 = KY[i];
            double x1, y1, kx1, ky1, x2, y2, kx2, ky2, x3, y3, kx3, ky3, x4, y4, kx4, ky4;
            double x5, y5, kx5, ky5, xn, yn, kx6, ky6, ax, axn, ay, ayn, qx, qy;
            x1 = x + h * ($a10 * kx0);
            y1 = y + h * ($a10 * ky0);
            DERIV(1, x1, y1, &kx1, &ky1);
            x2 = x + h * ($a20 * kx0 + $a21 * kx1);
            y2 = y + h * ($a20 * ky0 + $a21 * ky1);
            DERIV(2, x2, y2, &kx2, &ky2);
            x3 = x + h * ($a30 * kx0 + $a31 * kx1 + $a32 * kx2);
            y3 = y + h * ($a30 * ky0 + $a31 * ky1 + $a32 * ky2);
            DERIV(3, x3, y3, &kx3, &ky3);
            x4 = x + h * ($a40 * kx0 + $a41 * kx1 + $a42 * kx2 + $a43 * kx3);
            y4 = y + h * ($a40 * ky0 + $a41 * ky1 + $a42 * ky2 + $a43 * ky3);
            DERIV(4, x4, y4, &kx4, &ky4);
            x5 = x + h * ($a50 * kx0 + $a51 * kx1 + $a52 * kx2 + $a53 * kx3 + $a54 * kx4);
            y5 = y + h * ($a50 * ky0 + $a51 * ky1 + $a52 * ky2 + $a53 * ky3 + $a54 * ky4);
            DERIV(5, x5, y5, &kx5, &ky5);
            xn = x + h * ($a60 * kx0 + $a62 * kx2 + $a63 * kx3 + $a64 * kx4 + $a65 * kx5);
            yn = y + h * ($a60 * ky0 + $a62 * ky2 + $a63 * ky3 + $a64 * ky4 + $a65 * ky5);
            DERIV(5, xn, yn, &kx6, &ky6);
            ax = fabs(x);
            axn = fabs(xn);
            ay = fabs(y);
            ayn = fabs(yn);
            qx = (h * ($e0 * kx0 + $e2 * kx2 + $e3 * kx3 + $e4 * kx4 + $e5 * kx5 + $e6 * kx6)
                  / (atol + rtol * (axn > ax ? axn : ax)));
            qy = (h * ($e0 * ky0 + $e2 * ky2 + $e3 * ky3 + $e4 * ky4 + $e5 * ky5 + $e6 * ky6)
                  / (atol + rtol * (ayn > ay ? ayn : ay)));
            XN[i] = xn;
            YN[i] = yn;
            KXN[i] = kx6;
            KYN[i] = ky6;
            SX[i] = qx * qx;
            SY[i] = qy * qy;
        }
        if (zflag)
            return PYTHON;
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
    o->accepted = accepted;
    o->rejected = rejected;
    o->nfev = nfev;
    return OK;
}
"""

# the names of the C function deriv that the Python right-hand side reads
# or assigns, and their C text: a parameter, deriv's local g, or an output
_DERIV_NAMES = {**{name: name for name in ("x", "y", "a", "b", "e", "l", "beta", "g")},
                "kx": "(*kx)", "ky": "(*ky)"}


class _Refused(Exception):
    """A source, or a run's number, that the compiled kernel does not take."""


class _BuildFailed(Exception):
    """The compiler exited with an error."""


_COMPARE = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
            ast.NotEq: "!="}
_BINOP = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*"}
_CALLS = {"min": "pymin", "max": "pymax"}


class _Translator:
    """Python expressions on floats to C expressions of the same IEEE
    operations in the same order: every operation is parenthesized as the
    Python tree groups it.  names maps each name it may read to its C text,
    and arrays holds the names it may read as name[i]; anything else raises
    _Refused."""

    def __init__(self, names: dict, arrays=frozenset()):
        self.names, self.arrays = names, arrays

    def expr(self, node) -> str:
        if isinstance(node, ast.Constant):
            # a float literal's repr reads back as the same double in C; an
            # int or a bool would not take Python's int arithmetic with it
            if type(node.value) is not float or not math.isfinite(node.value):
                raise _Refused(f"constant {node.value!r}")
            return repr(node.value)
        if isinstance(node, ast.Name):
            if node.id not in self.names:
                raise _Refused(f"name {node.id}")
            return self.names[node.id]
        if isinstance(node, ast.Subscript):
            if not (isinstance(node.value, ast.Name) and node.value.id in self.arrays
                    and isinstance(node.slice, ast.Name) and node.slice.id == "i"):
                raise _Refused("a subscript other than param[i]")
            return f"{node.value.id}[i]"
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return f"(-{self.expr(node.operand)})"
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            return f"DIV({self.expr(node.left)}, {self.expr(node.right)})"
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
        if func not in _CALLS or len(node.args) < 2:
            raise _Refused(f"call of {func}")
        # CPython keeps the running result unless an item beats it strictly
        out = self.expr(node.args[0])
        for arg in node.args[1:]:
            out = f"{_CALLS[func]}({out}, {self.expr(arg)})"
        return out

    def statements(self, src: str) -> list:
        """Each assignment name = expr of src as the C statement name = expr;."""
        lines = []
        for stmt in ast.parse(src).body:
            if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and stmt.targets[0].id in self.names):
                raise _Refused("a statement other than name = expr")
            lines.append(f"{self.names[stmt.targets[0].id]} = {self.expr(stmt.value)};")
        return lines


def _prox_params(source: str, params: tuple) -> tuple:
    """The parameters that the prox source reads, as (name, is_array) in the
    order of params: a parameter read as name[i] is an array of doubles, one
    read by name a double.  Refuses a source that reads any name but u, lam,
    its parameters and i, which may only index a parameter, or that calls
    anything but min, max and abs."""
    tree = ast.parse(source, mode="eval")
    if any(not name.isidentifier() or not name.isascii()
           or name in ("u", "lam", "i", "min", "max", "abs") for name in params):
        raise _Refused("parameter names")
    uses = {}
    calls = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    index = {id(node.slice) for node in ast.walk(tree) if isinstance(node, ast.Subscript)}
    base = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Subscript)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Name):
            continue
        if id(node) in calls:
            ok = node.id in ("min", "max", "abs")
        elif node.id in params:
            ok = uses.setdefault(node.id, id(node) in base) == (id(node) in base)
        else:
            ok = node.id in ("u", "lam") or (node.id == "i" and id(node) in index)
        if not ok:
            raise _Refused(f"name {node.id}")
    return tuple((name, uses[name]) for name in params if name in uses)


def c_source(v, used: tuple) -> str:
    """The C source of the DP5 kernel of variant v (a dynamics._Variant on
    float lanes) whose prox source reads the parameters used, as
    _prox_params gives them; raises _Refused when the translator refuses
    that source."""
    params = [f"    const double *prox_{name} = prm[{j}];" if array
              else f"    const double prox_{name} = prm[{j}][0];"
              for j, (name, array) in enumerate(used)]
    translate = _Translator(
        {**_DERIV_NAMES, **{f"prox_{name}": f"prox_{name}" for name, array in used if not array}},
        frozenset(f"prox_{name}" for name, array in used if array))
    deriv = translate.statements(dynamics._deriv_src(v, "", "x", "y", "kx", "ky"))
    tokens = {name: repr(value) for name, value in dynamics._DP5_TABLEAU.items()}
    tokens.update(min_step=repr(dynamics._MIN_STEP), numbers=", ".join(_NUMBERS),
                  params="\n".join(params), deriv="\n".join("    " + line for line in deriv))
    return string.Template(_TEMPLATE).substitute(tokens)


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
                raise _BuildFailed(res.stderr.decode(errors="replace"))
            os.replace(lib, path)
    return path


def _load(source: str):
    """The loaded library of source, built into the cache first when it is
    not there, or None when there is no compiler or it cannot be built."""
    cc = _compiler()
    if cc is None:
        return None
    command = [cc, *_FLAGS]
    key = "\0".join([source, *command, os.path.realpath(cc), sys.platform, platform.machine()])
    name = sha256(key.encode()).hexdigest() + ".so"
    for directory in (_cache_dir, _private_dir):
        try:
            return ctypes.CDLL(_build(directory(), name, source, command))
        except OSError:  # the directory, or the library in it, cannot be used
            continue
        except _BuildFailed:
            return None
    return None


# --------------------------------------------------------------- the kernel


def _float(value) -> float:
    """value, when it is a float; the state, t, max_step (which h may take)
    and the prox's parameters, which the loop or a prox source may combine
    with each other, must be."""
    if type(value) is not float:
        raise _Refused(f"number {value!r}")
    return value


def _double(value) -> float:
    """value as a double, when Python's arithmetic on it is a double's: a
    float, or an int that a float holds exactly, for the numbers that the
    loop only ever combines with a float."""
    if type(value) is float:
        return value
    if type(value) is int:
        try:
            if float(value) == value:
                return float(value)
        except OverflowError:
            pass
    raise _Refused(f"number {value!r}")


def _count(value) -> int:
    if type(value) is not int:
        raise _Refused(f"count {value!r}")
    return min(value, 2 ** 62)  # no run gets that far


_DOUBLES = ctypes.POINTER(ctypes.c_double)


class _Out(ctypes.Structure):
    """The C kernel's struct out."""
    _fields_ = ([(name, _DOUBLES) for name in ("ts", "xs", "ys", "xdots")]
                + [(name, ctypes.c_longlong) for name in ("n", "cap", "accepted", "rejected",
                                                          "nfev")]
                + [("t", ctypes.c_double), ("h", ctypes.c_double)])


class CompiledKernel:
    """The compiled DP5 kernel of one variant, called as the Python kernel
    is, (X, Y, t, T, settings, cfg) -> (samples, counts, KX, KY), and raising
    what it raises.  python() gives the variant's Python kernel, which runs
    a call whose numbers the C kernel does not take, and one that divides
    by zero."""

    def __init__(self, lib, params: tuple, python):
        self.params, self.python = params, python
        self.library = lib._name  # the path of the shared library
        self.run = lib.proxdyn_dp5
        self.run.restype = ctypes.c_int
        self.run.argtypes = [ctypes.c_int, _DOUBLES, _DOUBLES, ctypes.POINTER(ctypes.c_longlong),
                             ctypes.POINTER(_DOUBLES), ctypes.POINTER(_Out)]
        self.free = lib.proxdyn_free
        self.free.restype = None
        self.free.argtypes = [ctypes.POINTER(_Out)]

    def _arguments(self, X, Y, t, T, settings, cfg):
        """(m, w, q, counts, prm) for the C kernel and the parameter arrays
        that prm points into; raises _Refused."""
        m = len(X)
        s = cfg.schedule
        q = (ctypes.c_double * len(_NUMBERS))(
            _float(t), _double(T), *map(_double, (settings.atol, settings.rtol)),
            _float(settings.max_step), *map(_double, (
                settings.divergence_threshold, -cfg.alpha, cfg.beta, s.lam.offset,
                s.b.coef, s.b.exponent, s.eps.coef, s.eps.exponent,
                s.lam.term.coef, s.lam.term.exponent)))
        w = (ctypes.c_double * (10 * m))()
        w[:m] = list(map(_float, X))
        w[m:2 * m] = list(map(_float, Y))
        counts = (ctypes.c_longlong * 2)(_count(settings.max_steps), _count(settings.sample_stride))
        values = cfg.objective.prox.coordinate_params
        prm, keep = None, []
        if self.params:
            prm = (_DOUBLES * len(self.params))()
            for j, (name, array) in enumerate(self.params):
                value = values[name]
                if array:
                    if type(value) not in (list, tuple) or len(value) < m:
                        raise _Refused(f"parameter {name}")
                    value = list(map(_float, value))
                else:
                    value = [_float(value)]
                keep.append((ctypes.c_double * len(value))(*value))
                prm[j] = ctypes.cast(keep[-1], _DOUBLES)
        return m, w, q, counts, prm, keep

    def __call__(self, X, Y, t, T, settings, cfg):
        try:
            m, w, q, counts, prm, keep = self._arguments(X, Y, t, T, settings, cfg)
        except _Refused:
            return self.python()(X, Y, t, T, settings, cfg)
        out = _Out()
        try:
            code = self.run(m, w, q, counts, prm, ctypes.byref(out))
            if code == _OK:
                samples = (self._take(out.ts, out.n),
                           *(self._take(buf, out.n * m) for buf in (out.xs, out.ys, out.xdots)))
                return (samples, (out.accepted, out.rejected, out.nfev),
                        w[2 * m:3 * m], w[3 * m:4 * m])
        finally:
            self.free(ctypes.byref(out))
        if code == _PYTHON:
            return self.python()(X, Y, t, T, settings, cfg)
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

    @staticmethod
    def _take(ptr, count):
        """A copy of count doubles at ptr, as a numpy array."""
        arr = np.empty(count)
        ctypes.memmove(arr.ctypes.data, ptr, 8 * count)
        return arr


def dp5_kernel(v, python):
    """The compiled DP5 kernel of variant v (float lanes), or None when the
    translator refuses its prox source, there is no C compiler or the build
    fails.  python is a function of no arguments that returns the variant's
    Python kernel."""
    try:
        params = _prox_params(v.prox_source, v.prox_params)
        source = c_source(v, params)
    except (_Refused, SyntaxError):
        return None
    lib = _load(source)
    return None if lib is None else CompiledKernel(lib, params, python)
