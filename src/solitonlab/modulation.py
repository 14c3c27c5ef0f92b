"""Soliton chart: projector on the symplectic-orthogonal complement, its
Neumann inverse, and Newton extraction of (p, q, phi) from a field.

The chart writes psi = e^{q.JA}(eta_p + Pi_p phi).  Extraction solves the
2(dim+1) root-finding conditions on Phi := e^{-q.JA} psi - eta_p

    f_l = <A_l eta_p, Phi> = 0,      g_l = <E d eta_p/d p_l, Phi> = 0

(the bracket carries the factor 2).  At a chart point the Jacobian is
approximately block-diagonal (df/dp ~ -I, dg/dq ~ +I), which is what makes
warm-started Newton reliable along a trajectory.

phi in the returned decomposition is the physical remainder Phi = Pi_p phi,
the quantity the long-time bounds control, so psi = e^{q.JA}(eta_p + phi).
The reference-space coordinate is invert_projector(phi, tangents_p,
tangents_0), computed only on request.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from .field import FieldState, apply_symmetry, h1_norm, l2_norm, momenta
from .groundstate import (GroundStateError, SolitonFamily, SolitonParameters,
                          SolitonTangents)

__all__ = [
    "ExtractionError", "NewtonDivergenceError", "MaxIterExceededError",
    "LeavesChartError", "SolitonCoordinates", "Decomposition",
    "project", "invert_projector", "residuals", "initial_guess", "extract",
    "newton_jacobian",
]


class ExtractionError(RuntimeError):
    pass


class NewtonDivergenceError(ExtractionError):
    pass


class MaxIterExceededError(ExtractionError):
    pass


class LeavesChartError(ExtractionError):
    pass


@dataclass
class SolitonCoordinates:
    p: np.ndarray
    q: np.ndarray                # q4 lives on the covering space (unwrapped)


@dataclass
class Decomposition:
    coords: SolitonCoordinates
    phi: FieldState              # physical remainder Phi = e^{-q.JA} psi - eta_p
    residual: np.ndarray         # the 2(dim+1) orthogonality pairings of phi
    phi_h1: float                # norms of phi
    phi_l2: float
    newton_iters: int


def _bracket(cell, u, v):
    return 2.0 * cell * float(np.sum(u.real * v.real + u.imag * v.imag))


def _pairings(tg: SolitonTangents, vals):
    """(f_l, g_l) for the active indices: f = <A_l eta, vals>, g = <E t_l, vals>."""
    cell = tg.grid.cell
    f = [_bracket(cell, tg.A_eta[j], vals) for j in tg.active]
    g = [_bracket(cell, 1j * tg.t[j], vals) for j in tg.active]
    return np.array(f + g)


def project(psi: FieldState, tangents: SolitonTangents) -> FieldState:
    """Pi_p psi = psi - sum <A_j eta, psi> t_j + sum <E t_j, psi> J A_j eta."""
    if not psi.grid.compatible(tangents.grid):
        raise ExtractionError("grid mismatch between field and tangents")
    cell = psi.grid.cell
    out = psi.values.copy()
    for j in tangents.active:
        out -= _bracket(cell, tangents.A_eta[j], psi.values) * tangents.t[j]
        # J A_j eta = -i A_j eta (spatial j: = d_j eta; j = 4: = -i eta)
        out += _bracket(cell, 1j * tangents.t[j], psi.values) * (-1j * tangents.A_eta[j])
    return FieldState(psi.grid, out)


def invert_projector(phi_raw: FieldState, tangents_p: SolitonTangents,
                     tangents_0: SolitonTangents, tol: float = 1e-12,
                     max_iter: int = 50) -> FieldState:
    """Solve Pi_p u = phi_raw for u in the reference range of Pi_0 by the
    Neumann iteration u <- phi_raw + (Pi_0 - Pi_p) u."""
    g = phi_raw.grid
    eta_scale = float(np.sqrt(g.cell) * np.linalg.norm(tangents_p.eta.ravel()))
    # series convergence is judged on the iterate increments (the equation
    # defect bottoms out at the size of the input's tangent component)
    threshold = max(tol * l2_norm(phi_raw), 1e-13 * eta_scale)
    u = phi_raw
    best = np.inf
    stall = 0
    for _ in range(max_iter):
        u_next = FieldState(g, phi_raw.values + project(u, tangents_0).values
                            - project(u, tangents_p).values)
        inc = l2_norm(FieldState(g, u_next.values - u.values))
        u = u_next
        if inc <= threshold:
            return u
        if inc < best * (1.0 - 1e-9):
            best, stall = inc, 0
        else:
            stall += 1
            if stall >= 4:
                raise ExtractionError("projector inversion: no contraction")
    raise ExtractionError(f"projector inversion did not converge in {max_iter} iterations")


class _Workspace:
    """Caches for one extraction: tangent bundles keyed by p, and the last
    pull-back apply_symmetry(psi, -q), which shifts psi.spectrum and carries
    the result: nothing derived from psi is transformed forward."""

    def __init__(self, psi: FieldState, family: SolitonFamily):
        self.psi = psi
        self.grid = psi.grid
        self.family = family
        self._tg = {}
        self._q = self._pb = None

    def tangents(self, p) -> SolitonTangents:
        key = tuple(np.round(np.asarray(p, dtype=float), 14))
        if key not in self._tg:
            if len(self._tg) > 128:
                self._tg.clear()
            self._tg[key] = self.family.tangents(np.asarray(p, dtype=float), self.grid)
        return self._tg[key]

    def pulled_back(self, q) -> FieldState:
        """e^{-q.JA} psi = e^{+i q4} psi(. + q_vec); cached."""
        if self._q is None or not np.array_equal(q, self._q):
            self._q = np.array(q, dtype=float)
            self._pb = apply_symmetry(self.psi, -self._q)
        return self._pb

    def q_derivative(self, q, j: int) -> np.ndarray:
        """d/dq_j of e^{-q.JA} psi: the spectral d_j with the wavenumbers of
        the shift itself (Nyquist kept), and i e^{-q.JA} psi for j = 4."""
        P = self.pulled_back(q)
        if j == 3:
            return 1j * P.values
        return sfft.ifftn(1j * self.grid.k[j] * P.spectrum)

    def residual(self, p, q) -> np.ndarray:
        """Pairings at (p, q); +inf vector for trial points outside the
        family's validity range (rejected by the Newton damping)."""
        n = 2 * (self.family.dim + 1)
        try:
            tg = self.tangents(p)
        except GroundStateError:
            return np.full(n, np.inf)
        r = _pairings(tg, self.pulled_back(q).values - tg.eta)
        return r if np.all(np.isfinite(r)) else np.full(n, np.inf)


def residuals(psi: FieldState, p, q, family: SolitonFamily) -> np.ndarray:
    """Orthogonality pairings of Phi = e^{-q.JA} psi - eta_p (root targets)."""
    ws = _Workspace(psi, family)
    return ws.residual(np.asarray(p, dtype=float), np.asarray(q, dtype=float))


def newton_jacobian(ws: _Workspace, p, q) -> np.ndarray:
    """Jacobian of the residuals in (p, q), columns (p_active, q_active), exact.

    Only the tangents depend on p and only the pull-back P = e^{-q.JA} psi on
    q.  A q-column is the pairings of dP/dq_k.  With Phi = P - eta_p, a
    p-column is [<A_l t_k, Phi>]_l ++ [<i d t_l/d p_k, Phi>]_l - <., t_k>,
    where d t_l/d p_k is the closed form SolitonTangents.dt and
    <A_l t_k, Phi> = <t_k, A_l Phi> (A_l is symmetric in the bracket); the
    spectrum of Phi is that of P minus that of eta_p, so none is transformed.
    """
    tg = ws.tangents(p)
    g, act = ws.grid, tg.active
    P = ws.pulled_back(q)
    phi = P.values - tg.eta
    phi_hat = P.spectrum - tg.eta_hat
    A_phi = [phi if l == 3 else sfft.ifftn(-g.k_deriv[l] * phi_hat) for l in act]
    g_dt = np.empty((len(act), len(act)))          # <i d t_l/d p_k, Phi>, symmetric
    for a, l in enumerate(act):
        for c in range(a, len(act)):
            g_dt[a, c] = g_dt[c, a] = _bracket(g.cell, 1j * tg.dt(l, act[c]), phi)
    cols = []
    for c, k in enumerate(act):
        f = [_bracket(g.cell, tg.t[k], A) for A in A_phi]
        cols.append(np.concatenate([f, g_dt[:, c]]) - _pairings(tg, tg.t[k]))
    for k in act:
        cols.append(_pairings(tg, ws.q_derivative(q, k)))
    return np.column_stack(cols)


def initial_guess(psi: FieldState, family: SolitonFamily):
    """(coords, info): centroid position, spectral momenta, mass offset, and
    the gauge angle from the complex pairing with the guessed soliton."""
    g = psi.grid
    w = np.abs(psi.values) ** 2
    total = float(np.sum(w)) * g.cell
    if total <= 1e-12:
        raise ExtractionError("total mass below threshold")

    P = momenta(psi)
    p = np.zeros(4)
    p[:g.dim] = P[:g.dim]
    p[3] = P[3] - 2.0 * family.m_ref
    info = {"mass": P[3],
            "low_confidence": abs(P[3] - 2.0 * family.m_ref) > 0.5 * 2.0 * family.m_ref}
    # reference soliton for the gauge angle: clamp the mass offset so the
    # profile stays representable even for radiation-dominated fields
    p_ref = p.copy()
    p_ref[3] = min(max(p[3], -family.m_ref), 2.0 * family.m_ref)

    # centroid about the density peak (avoids wrap bias on the torus)
    peak = np.unravel_index(int(np.argmax(w)), g.n)
    q = np.zeros(4)
    rolled = np.roll(w, tuple(g.n[j] // 2 - peak[j] for j in range(g.dim)),
                     axis=tuple(range(g.dim)))
    tot_r = float(np.sum(rolled))
    for j in range(g.dim):
        c = float(np.sum(g.x[j] * rolled)) / tot_r
        q[j] = c + g.axes[j][peak[j]]
        L = g.length[j]
        q[j] = (q[j] + L / 2.0) % L - L / 2.0

    eta_guess = family.build(SolitonParameters(tuple(p_ref), tuple(q)), g)
    z = complex(np.sum(psi.values * np.conj(eta_guess.values)))
    q[3] = -np.angle(z)
    return SolitonCoordinates(p, q), info


def extract(psi: FieldState, family: SolitonFamily,
            guess: SolitonCoordinates | None = None,
            tol: float = 1e-10, max_iter: int = 40,
            phi_frac_max: float = 0.75) -> Decomposition:
    """Newton-solve the orthogonality system from `guess` (by default the
    moment-based initial guess); assemble the decomposition."""
    ws = _Workspace(psi, family)
    if guess is None:
        guess = initial_guess(psi, family)[0]
    p, q = np.asarray(guess.p, dtype=float).copy(), np.asarray(guess.q, dtype=float).copy()

    r = ws.residual(p, q)
    rn = float(np.max(np.abs(r)))
    if not np.isfinite(rn):
        raise ExtractionError("guess outside the chart's validity range")
    increases = 0
    iters = 0
    while rn > tol:
        if iters >= max_iter:
            raise MaxIterExceededError(f"newton: residual {rn:.3e} after {iters} iterations")
        try:
            delta = np.linalg.solve(newton_jacobian(ws, p, q), -r)
        except GroundStateError as e:
            raise NewtonDivergenceError(f"newton: jacobian hit the chart boundary ({e})") from e
        except np.linalg.LinAlgError as e:
            raise NewtonDivergenceError(f"newton: singular jacobian ({e})") from e
        if not np.all(np.isfinite(delta)):
            raise NewtonDivergenceError("newton: non-finite step")
        # step clamp: a wild trial cannot leave the family's validity range
        big = np.max(np.abs(delta))
        if big > 1.0:
            delta *= 1.0 / big
        act = ws.tangents(p).active
        lam = 1.0
        for _ in range(6):
            p_new, q_new = p.copy(), q.copy()
            for i, j in enumerate(act):
                p_new[j] += lam * delta[i]
                q_new[j] += lam * delta[len(act) + i]
            r_new = ws.residual(p_new, q_new)
            rn_new = float(np.max(np.abs(r_new)))
            if rn_new < rn:
                break
            lam *= 0.5
        if not np.isfinite(rn_new):
            raise NewtonDivergenceError("newton: step left the chart's validity range")
        if rn_new >= rn:
            increases += 1
            if increases >= 2:
                raise NewtonDivergenceError(
                    f"newton: residual increased twice (at {rn:.3e})")
        else:
            increases = 0
        p, q, r, rn = p_new, q_new, r_new, rn_new
        iters += 1

    tg = ws.tangents(p)
    P = ws.pulled_back(q)
    phi = FieldState(psi.grid, P.values - tg.eta, P.spectrum - tg.eta_hat)
    phi_h1 = h1_norm(phi)
    eta_h1 = h1_norm(FieldState(psi.grid, tg.eta, tg.eta_hat))
    if phi_h1 > phi_frac_max * eta_h1:
        raise LeavesChartError(
            f"remainder H1 norm {phi_h1:.3e} exceeds {phi_frac_max} of the soliton's")
    return Decomposition(
        coords=SolitonCoordinates(p, q),
        phi=phi,
        residual=r,
        phi_h1=phi_h1,
        phi_l2=l2_norm(phi),
        newton_iters=iters,
    )
