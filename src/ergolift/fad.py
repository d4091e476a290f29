"""Vectorized forward-mode automatic differentiation on numpy arrays.

A ``Dual`` carries a value array of shape ``S`` together with a tangent
array of shape ``(ndir, *S)`` holding directional derivatives along
``ndir`` independent seed directions.  One evaluation of a numpy-style
pipeline therefore produces the value and a full Jacobian slice at once.

Every helper in this module accepts either plain arrays/scalars or
``Dual`` instances, so numerical code written against these helpers runs
unchanged with and without derivative tracking.

The vector and matrix helpers (``cross3``, ``sumsq``, ``mT``, matmul and
the rotations) act on the trailing axes and broadcast over leading ones,
so one call serves a single operand or a stack of them.

Duals that meet must carry the same directions: a tangent with one
direction broadcasts, but two different widths, neither of them one,
raise ValueError.  ``widen`` places a narrower tangent's rows among
wider directions.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Dual", "value", "seed", "widen",
    "sin", "cos", "absolute", "maximum", "where",
    "stack", "concatenate", "assemble", "cross3", "sumsq", "mT",
    "rotx", "roty", "rotz", "rpy_matrix",
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
    def ndim(self):
        return self.val.ndim

    @property
    def size(self):
        return self.val.size

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
        ov, od = _split(other, self)
        out = ov - self.val
        d = -_pad(self.dot, out.ndim)
        if od is not None:
            d = d + _pad(od, out.ndim)
        return Dual(out, d)

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
        ov, od = _split(other, self)
        out = ov / self.val
        d = -(ov / (self.val * self.val)) * _pad(self.dot, out.ndim)
        if od is not None:
            d = d + _pad(od, out.ndim) / self.val
        return Dual(out, d)

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
    ndir = _common_ndir(items)
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


def cross3(a, b):
    """Cross product of 3-vectors along the last axis, dual-safe.

    The leading axes of ``a`` and ``b`` broadcast like arrays.
    """
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return stack([a1 * b2 - a2 * b1,
                  a2 * b0 - a0 * b2,
                  a0 * b1 - a1 * b0], axis=-1)


def sumsq(x):
    """Sum of squares over the last axis."""
    return _matmul(x[..., None, :], x[..., :, None])[..., 0, 0]


# -- rotations ----------------------------------------------------------

def _zero_one_like(t):
    zero = t * 0.0
    return zero, zero + 1.0


def _matrix(rows):
    """3x3 matrices ``(..., 3, 3)`` from nested rows of same-shape entries."""
    return stack([stack(r, axis=-1) for r in rows], axis=-2)


def rotx(t):
    c, s = cos(t), sin(t)
    zero, one = _zero_one_like(t)
    return _matrix([[one, zero, zero], [zero, c, -s], [zero, s, c]])


def roty(t):
    c, s = cos(t), sin(t)
    zero, one = _zero_one_like(t)
    return _matrix([[c, zero, s], [zero, one, zero], [-s, zero, c]])


def rotz(t):
    c, s = cos(t), sin(t)
    zero, one = _zero_one_like(t)
    return _matrix([[c, -s, zero], [s, c, zero], [zero, zero, one]])


def rpy_matrix(roll, pitch, yaw):
    """ZYX convention: R = Rz(yaw) @ Ry(pitch) @ Rx(roll).

    Angle arrays of shape ``S`` give rotations of shape ``(*S, 3, 3)``.
    """
    return _matmul(_matmul(rotz(yaw), roty(pitch)), rotx(roll))


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
