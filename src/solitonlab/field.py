"""Periodic-grid complex fields and the bracket / symmetry toolbox.

Conventions (used everywhere downstream, watch the factor 2):

  inner(u, v)  = 2 Re
 ∫ u conj(v)        the bracket; inner(psi,psi) = 2||psi||_L2^2
  l2 norms carry NO factor 2:  l2_norm(psi)^2 = ∫|psi|^2 = P4(psi)
  omega(u, v)  = inner(i*u, v)                 symplectic form
  A_j = i d_j (j=1..3), A_4 = identity
  apply_symmetry(psi, q) = e^{-i q4} psi(. - q_vec)   (translation by +q)

Every transform of a field goes through one pair, `fftn` and `ifftn` below:
direct calls to pocketfft's `c2c`, the compiled routine in which
`scipy.fft.fftn` and `ifftn` end, so the results are scipy's bit for bit at
about a third of the cost on a 512-point line (3 against 9 us).  Callers in
other modules look the pair up as `field.fftn` / `field.ifftn` at call time.

A FieldState is immutable and carries what the per-sample helpers share,
each computed on first use: its spectrum fftn(values), its density
|values|^2 and its power |spectrum|^2.  A sample's diagnostics, its
extraction and its norms therefore transform the field once and square it
once in each space.
"""

from __future__ import annotations

import math
import struct
from functools import cached_property

import numpy as np
from scipy.fft._pocketfft.pypocketfft import c2c

__all__ = [
    "Grid", "FieldState", "GridMismatchError", "fftn", "ifftn",
    "inner", "omega", "l2_norm", "h1_norm", "w1s_norm",
    "momenta", "apply_symmetry", "apply_A", "gradient",
    "save_field", "load_field", "export_abs2_csv",
]

_MAGIC = b"NLSFLD01"
_HEADER = "<8sI3I3d"          # magic, dim, n[3], L[3]; zero-padded to 64 bytes


class GridMismatchError(ValueError):
    pass


_AXES = ((), (0,), (0, 1), (0, 1, 2))


def fftn(a: np.ndarray) -> np.ndarray:
    """scipy.fft.fftn(a) over every axis, bit for bit (a new array)."""
    return c2c(a, _AXES[a.ndim], True, 0, None, 1)


def ifftn(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """scipy.fft.ifftn(a) over every axis, bit for bit; written into `out`
    (a contiguous complex array of a's shape) when given."""
    return c2c(a, _AXES[a.ndim], False, 2, out, 1)


class Grid:
    """Uniform periodic grid on [-L/2, L/2)^dim with FFT wavenumbers."""

    def __init__(self, dim: int, n, length):
        self.dim = int(dim)
        self.n = tuple(int(v) for v in (n if np.iterable(n) else (n,) * dim))
        self.length = tuple(float(v) for v in (length if np.iterable(length) else (length,) * dim))
        if len(self.n) != dim or len(self.length) != dim:
            raise ValueError("n/length must match dim")
        self.spacing = tuple(L / N for L, N in zip(self.length, self.n))
        self.cell = float(np.prod(self.spacing))
        self.size = math.prod(self.n)
        self._edges = {}
        self.axes = [
            (np.arange(N) - N // 2) * h for N, h in zip(self.n, self.spacing)
        ]
        self.k_axes = [
            2.0 * np.pi * np.fft.fftfreq(N, d=h) for N, h in zip(self.n, self.spacing)
        ]
        # broadcastable coordinate / wavenumber arrays
        shape = lambda a, j: a.reshape([-1 if i == j else 1 for i in range(dim)])
        self.x = [shape(self.axes[j], j) for j in range(dim)]
        self.k = [shape(self.k_axes[j], j) for j in range(dim)]
        self.k2 = sum(kj**2 for kj in self.k)
        # odd-order derivative multipliers get the Nyquist mode zeroed
        self.k_deriv = []
        for j in range(dim):
            kd = self.k_axes[j].copy()
            kd[self.n[j] // 2] = 0.0
            self.k_deriv.append(shape(kd, j))

    @cached_property
    def radius(self) -> np.ndarray:
        """|x| at every node, shape n."""
        return np.sqrt(sum(xj**2 for xj in self.x)) + np.zeros(self.n)

    def edge_mask(self, width: int) -> np.ndarray:
        """Read-only mask of the nodes within `width` of the box edge (cached)."""
        if width not in self._edges:
            mask = np.zeros(self.n, dtype=bool)
            for j in range(self.dim):
                idx = [slice(None)] * self.dim
                idx[j] = slice(0, width)
                mask[tuple(idx)] = True
                idx[j] = slice(self.n[j] - width, self.n[j])
                mask[tuple(idx)] = True
            mask.flags.writeable = False
            self._edges[width] = mask
        return self._edges[width]

    def compatible(self, other: "Grid") -> bool:
        return self.n == other.n and self.length == other.length

    def __repr__(self):
        return f"Grid(dim={self.dim}, n={self.n}, length={self.length})"


def _read_only(a) -> np.ndarray:
    v = np.ascontiguousarray(a, dtype=np.complex128).view()
    v.flags.writeable = False
    return v


def _abs2(a: np.ndarray) -> np.ndarray:
    """|a|^2 as np.abs(a) ** 2, squared in place (one array), read-only."""
    out = np.abs(a)
    np.square(out, out=out)
    out.flags.writeable = False
    return out


class FieldState:
    """A complex field on `grid`, immutable: `values` is a read-only view, and
    `spectrum` = fftn(values), `density` = |values|^2 and `power` =
    |spectrum|^2 are read-only arrays computed when a helper first asks.
    Ownership: a maker that already holds fftn(values) hands it over as
    `spectrum`, and it does not write the arrays it hands over (contiguous
    complex128 arrays are viewed, not copied)."""

    def __init__(self, grid: Grid, values, spectrum: np.ndarray | None = None):
        values = _read_only(values)
        if values.shape != grid.n:
            raise ValueError(f"values shape {values.shape} != grid {grid.n}")
        self.__dict__.update(grid=grid, values=values)
        if spectrum is not None:
            self.__dict__["spectrum"] = _read_only(spectrum)

    def __setattr__(self, name, value):
        raise AttributeError(f"FieldState is immutable (cannot set {name!r})")

    @cached_property
    def spectrum(self) -> np.ndarray:
        return _read_only(fftn(self.values))

    @cached_property
    def density(self) -> np.ndarray:
        return _abs2(self.values)

    @cached_property
    def power(self) -> np.ndarray:
        return _abs2(self.spectrum)


def _same_grid(a: FieldState, b: FieldState):
    if not a.grid.compatible(b.grid):
        raise GridMismatchError("fields live on different grids")


def inner(a: FieldState, b: FieldState) -> float:
    """The bracket 2 Re ∫ a conj(b)."""
    _same_grid(a, b)
    return float(2.0 * a.grid.cell * np.sum(a.values.real * b.values.real
                                            + a.values.imag * b.values.imag))


def omega(a: FieldState, b: FieldState) -> float:
    """Symplectic form inner(i a, b)."""
    _same_grid(a, b)
    # Re(i a conj(b)) = -Im(a conj(b)) = a.imag*b.real - a.real*b.imag
    return float(2.0 * a.grid.cell * np.sum(a.values.imag * b.values.real
                                            - a.values.real * b.values.imag))


def l2_norm(psi: FieldState) -> float:
    return float(np.sqrt(psi.grid.cell) * np.linalg.norm(psi.values.ravel()))


def gradient(psi: FieldState):
    """Spectral gradient, one FieldState per axis (Nyquist zeroed)."""
    g = psi.grid
    hats = (1j * kd * psi.spectrum for kd in g.k_deriv)
    return [FieldState(g, ifftn(h), h) for h in hats]


def h1_norm(psi: FieldState) -> float:
    g = psi.grid
    s = ((1.0 + g.k2) * psi.power).sum() * g.cell / g.size
    return float(np.sqrt(s))


def w1s_norm(psi: FieldState, s: float) -> float:
    """||psi||_{L^s} + ||grad psi||_{L^s} with spectral gradient."""
    if s < 1:
        raise ValueError("unsupported exponent")
    g = psi.grid
    lp = (g.cell * np.sum(np.abs(psi.values) ** s)) ** (1.0 / s)
    gr = gradient(psi)
    mag2 = sum(np.abs(gj.values) ** 2 for gj in gr)
    lpg = (g.cell * np.sum(mag2 ** (s / 2.0))) ** (1.0 / s)
    return float(lp + lpg)


def momenta(psi: FieldState) -> np.ndarray:
    """(P_1, P_2, P_3, P_4): P_j = ∫ conj(psi) i d_j psi = -sum k_j |psi_hat|^2,
    P_4 = ∫ |psi|^2.  Components beyond the grid dimension are zero."""
    g = psi.grid
    ph2 = psi.power
    w = g.cell / g.size
    out = np.zeros(4)
    for j in range(g.dim):
        out[j] = -w * (g.k_deriv[j] * ph2).sum()
    out[3] = g.cell * psi.density.sum()
    return out


def apply_symmetry(psi: FieldState, q) -> FieldState:
    """e^{q^j J A_j} psi = e^{-i q4} psi(. - q_vec), translation spectral; a
    translated field carries its spectrum.  At q = 0 this is psi itself."""
    g = psi.grid
    q = np.asarray(q, dtype=float)
    if not q[:3].any():
        return FieldState(g, psi.values * np.exp(-1j * q[3])) if q[3] else psi
    shift = -sum(g.k[j] * q[j] for j in range(g.dim) if q[j] != 0.0)
    factor = np.empty(shift.shape, complex)     # exp(-i shift) from its real angle
    np.cos(shift, out=factor.real)
    np.sin(shift, out=factor.imag)
    ph = psi.spectrum * factor
    rot = np.exp(-1j * q[3])
    return FieldState(g, ifftn(ph) * rot, ph * rot)


def apply_A(psi: FieldState, j: int) -> FieldState:
    """A_j psi = i d_j psi for j=1..3 (spectral), A_4 psi = psi."""
    g = psi.grid
    if j == 4:
        return psi
    if not 1 <= j <= g.dim:
        raise ValueError(f"A_{j} undefined on a dim-{g.dim} grid")
    h = -g.k_deriv[j - 1] * psi.spectrum
    return FieldState(g, ifftn(h), h)


def boundary_mass_fraction(psi: FieldState, width: int = 5) -> float:
    """Fraction of ∫|psi|^2 within `width` grid points of the box edge."""
    w = psi.density
    tot = float(w.sum())
    return float(w[psi.grid.edge_mask(width)].sum() / tot) if tot > 0 else 0.0


# -- persistence ---------------------------------------------------------------

def save_field(psi: FieldState, path):
    """Flat little-endian binary: 64-byte header then (re, im) float64 pairs.

    Header: magic "NLSFLD01" (8s), dim (u32), n[3] (3*u32), L[3] (3*f64), zero pad.
    """
    g = psi.grid
    n3 = list(g.n) + [0] * (3 - g.dim)
    L3 = list(g.length) + [0.0] * (3 - g.dim)
    header = struct.pack(_HEADER, _MAGIC, g.dim, *n3, *L3)
    header = header.ljust(64, b"\0")
    flat = np.empty(2 * g.size, dtype="<f8")
    flat[0::2] = psi.values.real.ravel()
    flat[1::2] = psi.values.imag.ravel()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(flat.tobytes())


def load_field(path) -> FieldState:
    """Read a save_field file.  A short header, a bad dim or grid size, or a
    payload of other than 16 bytes per grid point raises ValueError (checked
    before any grid array is allocated)."""
    with open(path, "rb") as fh:
        header = fh.read(64)
        payload = fh.read()
    if len(header) < 64:
        raise ValueError(f"field file header is {len(header)} bytes, expected 64")
    magic, dim, n1, n2, n3, L1, L2, L3 = struct.unpack_from(_HEADER, header)
    if magic != _MAGIC:
        raise ValueError("not a field snapshot file")
    n = (n1, n2, n3)[:dim]
    if not 1 <= dim <= 3 or min(n) < 1:
        raise ValueError(f"bad field header: dim {dim}, n {(n1, n2, n3)}")
    if len(payload) != 16 * math.prod(n):
        raise ValueError(f"field payload is {len(payload)} bytes, expected "
                         f"{16 * math.prod(n)} for grid {n}")
    grid = Grid(dim, n, (L1, L2, L3)[:dim])
    flat = np.frombuffer(payload, dtype="<f8")
    vals = (flat[0::2] + 1j * flat[1::2]).reshape(grid.n)
    return FieldState(grid, vals)


def export_abs2_csv(psi: FieldState, path):
    """|psi|^2 profile for plotting: full line in 1D, axis cut in 3D."""
    g = psi.grid
    with open(path, "w") as fh:
        fh.write("x,abs2\n")
        if g.dim == 1:
            prof = np.abs(psi.values) ** 2
            xs = g.axes[0]
        else:
            mid = [N // 2 for N in g.n]
            prof = np.abs(psi.values[:, mid[1], mid[2]]) ** 2
            xs = g.axes[0]
        for x, v in zip(xs, prof):
            fh.write(f"{format(x, '.17g')},{format(v, '.17g')}\n")
