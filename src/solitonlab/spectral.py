"""Linearized operators at the ground state and the hypothesis checks.

With this build's sign conventions

    L_plus  = -Lap + E - beta'(b^2)            (kernel: b, gauge mode)
    L_minus = -Lap + E - beta'(b^2) - 2 beta''(b^2) b^2   (kernel: d_j b)

assembled as dense symmetric matrices with 4th-order central differences
(Dirichlet box [-R, R] in 1D; reduced radial u = r b per angular sector in
3D).  Internal modes of the full linearization are located through the
symmetric pencil L_plus^(1/2) L_minus L_plus^(1/2) restricted to the positive
subspace of L_plus: its eigenvalues are the admissible lambda^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.fft as sfft
from scipy.linalg import eigh

from .groundstate import GroundStateProfile, solve_ground_state
from .model import NonlinearityModel

__all__ = [
    "LinearizationOperators", "SpectralReport",
    "build_operators", "eigen_report", "kernel_residuals", "check_h2_h3_h5",
]


class SpectralError(RuntimeError):
    pass


def _lap_4th(n: int, h: float) -> np.ndarray:
    """-d^2/dx^2, 4th-order central, Dirichlet (symmetric pentadiagonal)."""
    m = np.zeros((n, n))
    i = np.arange(n)
    m[i, i] = 30.0
    m[i[:-1], i[:-1] + 1] = -16.0
    m[i[:-1] + 1, i[:-1]] = -16.0
    m[i[:-2], i[:-2] + 2] = 1.0
    m[i[:-2] + 2, i[:-2]] = 1.0
    return m / (12.0 * h * h)


@dataclass
class LinearizationOperators:
    dim: int
    energy: float
    r_max: float
    x: np.ndarray                     # interior nodes (line in 1D, radii in 3D)
    b: np.ndarray                     # profile samples on x
    matrices: dict                    # ("plus"|"minus", sector) -> dense symmetric
    sectors: tuple = (0,)
    model: NonlinearityModel = None
    profile: GroundStateProfile = None


def build_operators(profile: GroundStateProfile, model: NonlinearityModel,
                    n: int, r_max: float, sectors=(0, 1)) -> LinearizationOperators:
    E = profile.energy
    if r_max < 10.0 / np.sqrt(E):
        raise SpectralError("domain too small: need r_max >= 10/sqrt(E)")
    if profile.dim == 1:
        h = 2.0 * r_max / (n + 1)
        x = -r_max + h * np.arange(1, n + 1)
        b = profile(np.abs(x))
        sectors = (0,)
    else:
        h = r_max / (n + 1)
        x = h * np.arange(1, n + 1)
        b = profile(x)

    u_plus = E - model.beta_prime(b**2)
    u_minus = u_plus - 2.0 * model.beta_second(b**2) * b**2
    for u in (u_plus, u_minus):
        if abs(u[-1] - E) > 1e-6 * E:
            raise SpectralError("potential term not decayed at the domain edge")

    lap = _lap_4th(n, h)
    mats = {}
    for sector in (sectors if profile.dim == 3 else (0,)):
        if profile.dim == 3:
            cent = sector * (sector + 1) / x**2
            lap_s = lap.copy()
            # regular origin: the stencil's r = -h image carries the parity of
            # the reduced wave u ~ r^(l+1)
            lap_s[0, 0] += (-1.0) ** (sector + 1) / (12.0 * h * h)
        else:
            cent = 0.0
            lap_s = lap
        mats[("plus", sector)] = lap_s + np.diag(u_plus + cent)
        mats[("minus", sector)] = lap_s + np.diag(u_minus + cent)
    return LinearizationOperators(dim=profile.dim, energy=E, r_max=r_max, x=x, b=b,
                                  matrices=mats, sectors=tuple(sorted({s for _, s in mats})),
                                  model=model, profile=profile)


def kernel_residuals(profile: GroundStateProfile, model: NonlinearityModel,
                     n: int = 4096, r_max: float = 40.0):
    """(||L_plus b|| / ||b||, ||L_minus b'|| / ||b'||) with spectral derivatives."""
    E = profile.energy
    if profile.dim == 1:
        h = 2.0 * r_max / n
        x = -r_max + h * np.arange(n)
        b = profile(np.abs(x))
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
        bh = sfft.fft(b)
        lap_b = sfft.ifft(-(k**2) * bh).real
        db = sfft.ifft(1j * k * bh).real
        lap_db = sfft.ifft(-(k**2) * sfft.fft(db)).real
        lp = -lap_b + (E - model.beta_prime(b**2)) * b
        lm = -lap_db + (E - model.beta_prime(b**2) - 2 * model.beta_second(b**2) * b**2) * db
        return (np.linalg.norm(lp) / np.linalg.norm(b),
                np.linalg.norm(lm) / np.linalg.norm(db))
    # 3D: act on the reduced waves u = r b (sector 0) and u = r b' (sector 1)
    h = r_max / n
    r = h * np.arange(1, n)
    b = profile(r)
    kj = np.pi * np.arange(1, n) / r_max

    def reduced_apply(u, extra):
        upp = sfft.dst(-(kj[: len(u)] ** 2) * sfft.dst(u, type=1), type=1) / (2.0 * (len(u) + 1))
        return -upp + (E - model.beta_prime(b**2) + extra) * u

    u0 = r * b
    lp = reduced_apply(u0, 0.0)
    dr = 1e-6
    db = (profile(r + dr) - profile(r - dr)) / (2 * dr)
    u1 = r * db
    lm = reduced_apply(u1, -2.0 * model.beta_second(b**2) * b**2 + 2.0 / r**2)
    return (np.linalg.norm(lp) / np.linalg.norm(u0),
            np.linalg.norm(lm) / np.linalg.norm(u1))


@dataclass
class SpectralReport:
    energy: float
    kernel_tol: float
    eigenvalues: dict                  # ("plus"|"minus", sector) -> lowest 20
    kernel_dim: dict
    negative_count: dict               # lambda < -kernel_tol * E, kernel band excluded
    kernel_overlap: dict               # |<v_ker, reference>| / norms
    internal_modes: list               # lambda in the gap window
    pencil_min: float
    gap_window: tuple
    h3_ok: bool = field(default=False)
    h5_ok: bool = field(default=False)

    def to_dict(self):
        return {
            "energy": self.energy,
            "kernel_tol": self.kernel_tol,
            "eigenvalues": {f"{op}_{sec}": list(map(float, v))
                            for (op, sec), v in self.eigenvalues.items()},
            "kernel_dim": {f"{op}_{sec}": int(v) for (op, sec), v in self.kernel_dim.items()},
            "negative_count": {f"{op}_{sec}": int(v)
                               for (op, sec), v in self.negative_count.items()},
            "kernel_overlap": {f"{op}_{sec}": float(v)
                               for (op, sec), v in self.kernel_overlap.items()},
            "internal_modes": list(map(float, self.internal_modes)),
            "pencil_min": float(self.pencil_min),
            "gap_window": list(self.gap_window),
            "h3_ok": bool(self.h3_ok),
            "h5_ok": bool(self.h5_ok),
        }


def eigen_report(ops: LinearizationOperators, kernel_tol: float = 1e-4,
                 gap_window=(0.05, 0.95), n_report: int = 20) -> SpectralReport:
    E = ops.energy
    tol = kernel_tol * E
    eigs, kdim, nneg, kover = {}, {}, {}, {}
    vecs = {}
    for key, mat in ops.matrices.items():
        w, v = eigh(mat)
        eigs[key] = w[:n_report]
        vecs[key] = (w, v)
        kdim[key] = int(np.sum(np.abs(w) < tol))
        nneg[key] = int(np.sum(w < -tol))

    # kernel eigenvector overlaps against the symmetry modes
    if ops.dim == 1:
        ref_plus = ops.b
        dr = 1e-6
        ref_minus = (ops.profile(np.abs(ops.x + dr))
                     - ops.profile(np.abs(ops.x - dr))) / (2 * dr)
        targets = {("plus", 0): ref_plus, ("minus", 0): ref_minus}
    else:
        dr = 1e-6
        db = (ops.profile(ops.x + dr) - ops.profile(ops.x - dr)) / (2 * dr)
        targets = {("plus", 0): ops.x * ops.b, ("minus", 1): ops.x * db}
    for key, ref in targets.items():
        if key not in vecs:
            continue
        w, v = vecs[key]
        i = int(np.argmin(np.abs(w)))
        nrm = np.linalg.norm(v[:, i]) * np.linalg.norm(ref)
        kover[key] = float(abs(v[:, i] @ ref) / nrm) if nrm > 0 else 0.0

    # internal modes: symmetric pencil on the positive subspace of L_plus
    internal = []
    pencil_min = np.inf
    for sector in ops.sectors:
        wp, vp = vecs[("plus", sector)]
        pos = wp > tol
        s = np.sqrt(wp[pos])
        Q = vp[:, pos]
        M = (s[:, None] * (Q.T @ ops.matrices[("minus", sector)] @ Q)) * s[None, :]
        nu = np.linalg.eigvalsh(M)
        pencil_min = min(pencil_min, float(nu[0]))
        lam = np.sqrt(nu[nu > tol**2])
        internal.extend(lam[(lam > gap_window[0] * E) & (lam < gap_window[1] * E)].tolist())

    expected_kernels = ({("plus", 0): 1, ("minus", 0): 1} if ops.dim == 1
                        else {("plus", 0): 1, ("minus", 1): 1})
    h3 = all(kdim.get(k, 0) == n for k, n in expected_kernels.items()) \
        and all(v >= 0.999 for v in kover.values()) \
        and nneg[("plus", 0)] == 0
    h5 = len(internal) == 0
    return SpectralReport(energy=E, kernel_tol=kernel_tol, eigenvalues=eigs,
                          kernel_dim=kdim, negative_count=nneg, kernel_overlap=kover,
                          internal_modes=sorted(internal), pencil_min=pencil_min,
                          gap_window=tuple(gap_window), h3_ok=h3, h5_ok=h5)


def check_h2_h3_h5(model: NonlinearityModel, energy: float, dim: int = 1,
                   n: int = 2048, r_max: float = 40.0, **report_kw) -> dict:
    """Mass-curve slope at E, kernel structure, internal-mode scan: one verdict.

    The power kind's slope is the scaling law's, (1/sigma - d/2) m / E; the
    saturable kind's is the solve's own, from its exact b_E."""
    prof = solve_ground_state(model, energy, dim, r_max=r_max)
    dm_dE = ((1.0 / model.sigma - dim / 2.0) * prof.mass / energy if model.kind == "power"
             else prof.mass_derivatives()[0])
    ops = build_operators(prof, model, n=n, r_max=r_max)
    rep = eigen_report(ops, **report_kw)
    out = {
        "energy": energy,
        "dim": dim,
        "mass": prof.mass,
        "dm_dE": float(dm_dE),
        "h2_ok": bool(dm_dE > 0),
        "spectral": rep.to_dict(),
        "h3_ok": rep.h3_ok,
        "h5_ok": rep.h5_ok,
    }
    if dim == 1:
        out["note"] = ("one-dimensional verification surrogate: a threshold "
                       "resonance sits at the continuous-spectrum edge; the "
                       "resonance condition is outside this scan")
    return out
