"""Vectorized forward-mode automatic differentiation on numpy arrays.

A ``Dual`` carries a value array of shape ``S`` together with a tangent
array of shape ``(ndir, *S)`` holding directional derivatives along
``ndir`` independent seed directions.  One evaluation of a numpy-style
pipeline therefore produces the value and a full Jacobian slice at once.

Every helper in this module but ``rodrigues`` accepts either plain
arrays/scalars or ``Dual`` instances, so numerical code written against
these helpers runs unchanged with and without derivative tracking.

The vector and matrix helpers (``cross3``, ``sumsq``, ``mT``, matmul and
the rotations) act on the trailing axes and broadcast over leading ones,
so one call serves a single operand or a stack of them.

Two tangent rules are fused: ``cross3`` and ``rpy_matrix`` each form
their value and tangent as a few whole-array expressions instead of
composing component ``Dual`` operations, stacks and matmuls, since the
cost of a derivative pass is mostly Python per operation.  ``cross3``
repeats the composition's products and sums in the same order and
equals it bit for bit; ``rpy_matrix`` is written in closed form and
agrees with ``Rz @ Ry @ Rx`` to about 1e-16.  Their tangents are new
C-ordered arrays.  numpy's matmul may round differently by the
memory layout of its operands, so a later product of such a tangent can
differ in the last bits from the same product of a strided one.
``rodrigues``, the joint rotation ``I + sin(s) K + (1 - cos s) K^2``,
is plain: it takes plain angles only, since ``multibody`` forms the
joint rotation tangents from the links' twists; ``multibody`` calls it
once per tree, over every joint.

Duals that meet must carry the same directions: a tangent with one
direction broadcasts, but two different widths, neither of them one,
raise ValueError.  ``widen`` places a narrower tangent's rows among
wider directions.
"""

from __future__ import annotations

import numpy as np

_EYE3 = np.eye(3)
_EYE3.flags.writeable = False

__all__ = [
    "Dual", "value", "seed", "widen",
    "sin", "cos", "absolute", "maximum", "where",
    "stack", "concatenate", "assemble", "cross3", "sumsq", "mT",
    "rodrigues", "rpy_matrix",
]


class Dual:
    """Array plus a batch of directional derivatives."""

    __slots__ = ("val", "dot")
    # keep numpy from intercepting `ndarray (op) Dual`
    __array_ufunc__ = None

    def __init__(self, val, dot):
        self.val = np.asarray(val, dtype=float)
        self.dot = np.asarray(dot, dtype=float)
        if self.dot.shape[1:] != self.val.shape:
            self.dot = np.broadcast_to(
                self.dot, (self.dot.shape[0],) + self.val.shape)

    @property
    def shape(self):
        return self.val.shape

    @property
    def ndir(self):
        return self.dot.shape[0]

    def __len__(self):
        return len(self.val)

    def __repr__(self):
        return f"Dual(val={self.val!r}, ndir={self.ndir})"

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        ov, od = _split(other, self)
        out = self.val + ov
        d = _pad(self.dot, out.ndim)
        if od is not None:
            d = d + _pad(od, out.ndim)
        return Dual(out, d)

    __radd__ = __add__

    def __sub__(self, other):
        ov, od = _split(other, self)
        out = self.val - ov
        d = _pad(self.dot, out.ndim)
        if od is not None:
            d = d - _pad(od, out.ndim)
        return Dual(out, d)

    def __rsub__(self, other):
        # other is plain: a Dual on the left would have run __sub__
        out = np.asarray(other, dtype=float) - self.val
        return Dual(out, -_pad(self.dot, out.ndim))

    def __neg__(self):
        return Dual(-self.val, -self.dot)

    def __mul__(self, other):
        ov, od = _split(other, self)
        out = self.val * ov
        d = _pad(self.dot, out.ndim) * ov
        if od is not None:
            d = d + self.val * _pad(od, out.ndim)
        return Dual(out, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        ov, od = _split(other, self)
        out = self.val / ov
        d = _pad(self.dot, out.ndim) / ov
        if od is not None:
            d = d - (self.val / (ov * ov)) * _pad(od, out.ndim)
        return Dual(out, d)

    def __rtruediv__(self, other):
        # other is plain: a Dual on the left would have run __truediv__
        ov = np.asarray(other, dtype=float)
        out = ov / self.val
        return Dual(out, -(ov / (self.val * self.val))
                    * _pad(self.dot, out.ndim))

    def __pow__(self, n):
        if not np.isscalar(n):
            raise TypeError("Dual ** only supports scalar exponents")
        return Dual(self.val ** n, n * (self.val ** (n - 1)) * self.dot)

    def __matmul__(self, other):
        return _matmul(self, other)

    def __rmatmul__(self, other):
        return _matmul(other, self)

    def __getitem__(self, idx):
        if not isinstance(idx, tuple):
            idx = (idx,)
        return Dual(self.val[idx], self.dot[(slice(None),) + idx])

    @property
    def mT(self):
        """Transpose of the last two axes, for any number of leading ones."""
        return Dual(np.swapaxes(self.val, -1, -2),
                    np.swapaxes(self.dot, -1, -2))

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], tuple):
            shape = shape[0]
        new_val = self.val.reshape(shape)
        return Dual(new_val, self.dot.reshape((self.ndir,) + new_val.shape))


def _check_widths(widths):
    """The common direction count of tangents; one direction broadcasts."""
    wide = set(widths) - {1}
    if len(wide) > 1:
        a, b = sorted(wide)[:2]
        raise ValueError(f"Duals with {a} and {b} directions meet; "
                         "widen first")
    return max(widths)


def _split(x, other=None):
    """Return (value, tangent-or-None) of an operand.

    A ``Dual`` operand's width is checked against ``other``'s, when
    ``other`` is a Dual too.
    """
    if isinstance(x, Dual):
        if isinstance(other, Dual) and x.dot.shape[0] != other.dot.shape[0]:
            _check_widths((x.dot.shape[0], other.dot.shape[0]))
        return x.val, x.dot
    return np.asarray(x, dtype=float), None


def _pad(dot, target_ndim):
    """Insert singleton axes after the direction axis so the tangent
    broadcasts like its value against a result of target_ndim dims."""
    have = dot.ndim - 1
    if have >= target_ndim:
        return dot
    return dot.reshape((dot.shape[0],) + (1,) * (target_ndim - have)
                       + dot.shape[1:])


def value(x):
    """Value part of a Dual, or the input itself."""
    return x.val if isinstance(x, Dual) else np.asarray(x, dtype=float)


def mT(x):
    """Transpose of the last two axes of an array or Dual."""
    return x.mT if isinstance(x, Dual) else np.swapaxes(x, -1, -2)


def _matmul(a, b):
    av, ad = _split(a)
    bv, bd = _split(b, a)
    out = av @ bv
    # for two stacks of matrices, singleton axes after the direction axis
    # keep a tangent's stack axes aligned with the other operand's
    stacked = av.ndim >= 2 and bv.ndim >= 2
    d = None
    if ad is not None:
        d = (_pad(ad, out.ndim) if stacked else ad) @ bv
    if bd is not None:
        if stacked:
            t = av @ _pad(bd, out.ndim)
        elif av.ndim >= 2 and bv.ndim == 1:
            t = np.matmul(av, bd[..., None])[..., 0]
        elif av.ndim == 1 and bv.ndim >= 2:
            t = np.matmul(av, bd)
        else:
            t = bd @ av
        d = t if d is None else d + t
    if d is None:
        return out
    return Dual(out, d)


# -- elementwise functions ---------------------------------------------

def sin(x):
    if isinstance(x, Dual):
        return Dual(np.sin(x.val), np.cos(x.val) * x.dot)
    return np.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(np.cos(x.val), -np.sin(x.val) * x.dot)
    return np.cos(x)


def absolute(x):
    if isinstance(x, Dual):
        return Dual(np.abs(x.val), np.sign(x.val) * x.dot)
    return np.abs(x)


def maximum(x, floor):
    """Elementwise max of x against a plain floor (kink at equality)."""
    if isinstance(x, Dual):
        keep = x.val >= floor
        return Dual(np.maximum(x.val, floor), np.where(keep, x.dot, 0.0))
    return np.maximum(x, floor)


def where(cond, a, b):
    av, ad = _split(a)
    bv, bd = _split(b)
    out = np.where(cond, av, bv)
    if ad is None and bd is None:
        return out
    ndir = _check_widths([d.shape[0] for d in (ad, bd) if d is not None])
    zero = np.zeros((ndir,) + (1,) * out.ndim)
    ad = zero if ad is None else _pad(ad, out.ndim)
    bd = zero if bd is None else _pad(bd, out.ndim)
    return Dual(out, np.where(cond, ad, bd))


# -- structural ops ----------------------------------------------------

def _common_ndir(items):
    """Direction count of the Duals among items; one direction broadcasts."""
    widths = [x.ndir for x in items if isinstance(x, Dual)]
    return _check_widths(widths) if widths else None


def _dots(items, vals, ndir):
    return [np.zeros((ndir,) + v.shape) if not isinstance(x, Dual)
            else x.dot if x.ndir == ndir
            else np.broadcast_to(x.dot, (ndir,) + v.shape)
            for x, v in zip(items, vals)]


def stack(items, axis=0):
    """Same-shape items stacked along a new axis ``axis``.

    With any ``Dual`` item the result is a Dual.  Plain items stacked
    along the first axis are converted by one ``np.array`` call, into
    the float array ``np.stack`` of their values gives; for the dozens
    of scalars of a model's link tables it is many times cheaper.
    """
    ndir = _common_ndir(items)
    if ndir is None and axis == 0:
        return np.array(items, dtype=float)
    vals = [value(x) for x in items]
    out = np.stack(vals, axis=axis)
    if ndir is None:
        return out
    ax = axis if axis >= 0 else out.ndim + axis
    return Dual(out, np.stack(_dots(items, vals, ndir), axis=ax + 1))


def concatenate(items, axis=0):
    ndir = _common_ndir(items)
    vals = [value(x) for x in items]
    out = np.concatenate(vals, axis=axis)
    if ndir is None:
        return out
    ax = axis if axis >= 0 else out.ndim + axis
    return Dual(out, np.concatenate(_dots(items, vals, ndir), axis=ax + 1))


def assemble(shape, parts):
    """Zeros of ``shape`` with each ``(index, x)`` of ``parts`` written in.

    Values and tangents are written by slice assignment into arrays
    allocated once; the result is a Dual when any part is.
    """
    ndir = _common_ndir([x for _, x in parts])
    out = np.zeros(shape)
    dot = None if ndir is None else np.zeros((ndir,) + tuple(shape))
    for idx, x in parts:
        if isinstance(x, Dual):
            out[idx] = x.val
            dot[(slice(None),) + idx] = x.dot
        else:
            out[idx] = x
    return out if dot is None else Dual(out, dot)


# (NEXT, PREV) rolls of the last axis: component i of a x b is
# a[NEXT[i]] b[PREV[i]] - a[PREV[i]] b[NEXT[i]]
_NEXT, _PREV = [1, 2, 0], [2, 0, 1]


def cross3(a, b):
    """Cross product of 3-vectors along the last axis, dual-safe.

    The leading axes of ``a`` and ``b`` broadcast like arrays.  The
    rolled products are formed once on whole arrays, with the products
    and sums of the componentwise rule in the same order, so every
    entry equals that rule's bit for bit.
    """
    av, ad = _split(a)
    bv, bd = _split(b, a)
    out = av[..., _NEXT] * bv[..., _PREV] - av[..., _PREV] * bv[..., _NEXT]
    if ad is None and bd is None:
        return out
    if ad is not None:
        ad = _pad(ad, out.ndim)
    if bd is not None:
        bd = _pad(bd, out.ndim)

    def dot(i, j):  # tangent of a[..., i] * b[..., j]
        if ad is None:
            return av[..., i] * bd[..., j]
        t = ad[..., i] * bv[..., j]
        return t if bd is None else t + av[..., i] * bd[..., j]

    return Dual(out, dot(_NEXT, _PREV) - dot(_PREV, _NEXT))


def sumsq(x):
    """Sum of squares over the last axis."""
    return _matmul(x[..., None, :], x[..., :, None])[..., 0, 0]


# -- rotations ----------------------------------------------------------

def rodrigues(s, K, K2):
    """Rotations ``I + sin(s) K + (1 - cos s) K^2`` by plain angles ``s``.

    ``s`` ``(..., m)`` turns about m fixed unit axes whose cross-product
    matrices ``K`` and squares ``K2`` are ``(m, 3, 3)``; the result is
    ``(..., m, 3, 3)``, with the same sums and products as composing the
    rule from ``sin``, ``cos`` and array arithmetic, so it equals that
    composition bit for bit.  Every entry is formed on its own, so one
    call over all joints of a tree, as ``multibody.kinematics`` makes,
    gives the rotations that calls over parts of them give.  A Dual
    angle raises TypeError: the joint rotation tangents come from the
    links' twists (``multibody``).
    """
    if isinstance(s, Dual):
        raise TypeError("rodrigues takes plain angles, not a Dual")
    s = np.asarray(s, dtype=float)
    return (_EYE3 + np.sin(s)[..., None, None] * K
            + (1.0 - np.cos(s)[..., None, None]) * K2)


def _mat33(*entries):
    """3x3 matrices ``(..., 3, 3)`` from nine same-shape entries, row by
    row."""
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (3, 3))


def rpy_matrix(roll, pitch, yaw):
    """ZYX convention: R = Rz(yaw) @ Ry(pitch) @ Rx(roll), in closed form.

    Angle arrays broadcast to a shape ``S`` and give rotations
    ``(*S, 3, 3)``.  The tangent is one rule over the three angles: the
    sum of each Dual angle's tangent times R's partial derivative in
    that angle, ``R Kx`` for roll and ``Kz R`` for yaw, with ``Kx`` and
    ``Kz`` the cross-product matrices of the x and z axes.
    """
    angles = (roll, pitch, yaw)
    ndir = _common_ndir(angles)
    r, p, y = np.broadcast_arrays(*(value(a) for a in angles))
    sr, cr = np.sin(r), np.cos(r)
    sp, cp = np.sin(p), np.cos(p)
    sy, cy = np.sin(y), np.cos(y)
    R = _mat33(cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr,
               sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr,
               -sp, cp * sr, cp * cr)
    if ndir is None:
        return R
    zero = np.zeros_like(r)
    partials = (
        _mat33(zero, R[..., 0, 2], -R[..., 0, 1],
               zero, R[..., 1, 2], -R[..., 1, 1],
               zero, R[..., 2, 2], -R[..., 2, 1]),
        _mat33(-cy * sp, cy * cp * sr, cy * cp * cr,
               -sy * sp, sy * cp * sr, sy * cp * cr,
               -cp, -sp * sr, -sp * cr),
        _mat33(-R[..., 1, 0], -R[..., 1, 1], -R[..., 1, 2],
               R[..., 0, 0], R[..., 0, 1], R[..., 0, 2],
               zero, zero, zero))
    dot = sum(_pad(a.dot, r.ndim)[..., None, None] * d
              for a, d in zip(angles, partials) if isinstance(a, Dual))
    return Dual(R, dot)


# -- drivers ------------------------------------------------------------

def seed(x):
    """Wrap x as a Dual seeded with one identity direction per entry."""
    x = np.asarray(x, dtype=float)
    return Dual(x, np.eye(x.size).reshape((x.size,) + x.shape))


def widen(x, rows, ndir):
    """x with its tangent rows placed at ``rows`` of ``ndir`` directions.

    The other directions get zero tangents; a plain array passes through
    unchanged.
    """
    if not isinstance(x, Dual):
        return x
    dot = np.zeros((ndir,) + x.shape)
    dot[rows] = x.dot
    return Dual(x.val, dot)
