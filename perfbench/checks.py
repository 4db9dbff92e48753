"""Correctness checks made apart from the program.

Each check takes plain numbers or arrays and returns a list of problems,
empty when the answer passes.  None of them compares against stored
output: the coupled residuals are recomputed here with a few lines of
numpy FFT calculus, and every other check tests a property the method
must have (convergence order, the stability of the sweep, the exactly
known value of the probed one-form).
"""

from __future__ import annotations

import numpy as np

N_DIM = 3
TWO_STAR = 2.0 * N_DIM / (N_DIM - 2.0)
C_N = (N_DIM - 2.0) / (4.0 * (N_DIM - 1.0))


# ---------------------------------------------------------------------------
# criterion 9: coupled solutions on the torus
# ---------------------------------------------------------------------------

def wavevectors(N, period=2.0 * np.pi):
    """Full and Nyquist-zeroed (odd) wavevector grids, shape (3, N, N, N)."""
    k1 = 2.0 * np.pi * np.fft.fftfreq(N, d=period / N)
    k1_odd = k1.copy()
    if N % 2 == 0:
        k1_odd[N // 2] = 0.0
    k = np.stack(np.meshgrid(k1, k1, k1, indexing="ij"))
    k_odd = np.stack(np.meshgrid(k1_odd, k1_odd, k1_odd, indexing="ij"))
    return k, k_odd


def _ifft(vhat, axes=None):
    return np.real(np.fft.ifftn(vhat, axes=axes))


def roundtrip_coefficients(N, tau_axis, pi_axis, sigma_xy=0.1,
                           tau_amp=0.015, pi_amp=0.02, c=1.05):
    """Coefficients of the criterion-9 data, written out from the physics.

    psi = 1 and V = 0, so h = 0 and Y = 0; f = c_n (-(2/3) tau^2),
    b = c_n pi^2, U = sigma, gamma = c_n, X = -(2/3) grad tau with the
    spectral (odd-symbol) gradient of the sampled tau.
    """
    x = 2.0 * np.pi * np.arange(N) / N
    shape = [1, 1, 1]

    def lorentz(axis, amp):
        s = list(shape)
        s[axis] = N
        return np.broadcast_to(1.0 + amp / (c - np.cos(x)).reshape(s),
                               (N,) * 3).copy()

    tau = lorentz(tau_axis, tau_amp)
    pi = lorentz(pi_axis, pi_amp)
    U = np.zeros((3, 3, N, N, N))
    U[tau_axis, pi_axis] = U[pi_axis, tau_axis] = sigma_xy
    _, k_odd = wavevectors(N)
    grad_tau = _ifft(1j * k_odd * np.fft.fftn(tau)[None], axes=(1, 2, 3))
    return dict(h=np.zeros((N,) * 3), f=-C_N * (N_DIM - 1.0) / N_DIM * tau ** 2,
                b=C_N * pi ** 2, U=U, gamma=C_N,
                X=-(N_DIM - 1.0) / N_DIM * grad_tau, Y=np.zeros((3,) + (N,) * 3))


def coupled_residuals(u, W, coef):
    """Sup norms of the scalar and momentum residuals of (u, W)."""
    N = u.shape[0]
    k, k_odd = wavevectors(N)
    axes = (1, 2, 3)
    lap_u = _ifft(np.sum(k ** 2, axis=0) * np.fft.fftn(u))
    What = np.fft.fftn(W, axes=axes)
    dW = _ifft(1j * k_odd[:, None] * What[None], axes=(2, 3, 4))  # d_i W_j
    div = np.trace(dW)
    LW = dW + np.swapaxes(dW, 0, 1) - (2.0 / N_DIM) * np.eye(3)[:, :, None, None, None] * div
    a = coef["b"] + coef["gamma"] * np.sum((coef["U"] + LW) ** 2, axis=(0, 1))
    scalar = (lap_u + coef["h"] * u - coef["f"] * u ** (TWO_STAR - 1.0)
              - a * u ** (-TWO_STAR - 1.0))
    rhs = u ** TWO_STAR * coef["X"] + coef["Y"]
    rhs = rhs - rhs.mean(axis=axes, keepdims=True)
    k2 = np.sum(k ** 2, axis=0)
    lame_hat = k2 * What + (1.0 - 2.0 / N_DIM) * k_odd * np.sum(k_odd * What, axis=0)
    momentum = _ifft(lame_hat, axes=axes) - rhs
    return float(np.max(np.abs(scalar))), float(np.max(np.abs(momentum)))


def check_coupled_solution(u, W, coef, tol):
    """Residuals below tol, recomputed here, and a positive u."""
    problems = []
    if not np.min(u) > 0.0:
        problems.append(f"min u = {np.min(u):.3e} is not positive")
    scalar, momentum = coupled_residuals(u, W, coef)
    if not (scalar < tol and momentum < tol):
        problems.append(f"recomputed residuals ({scalar:.2e}, {momentum:.2e}) "
                        f"not below {tol:.1e}")
    return problems


def check_defect_decay(defects, factor=3.0):
    """Hamiltonian and momentum defects fall >= factor per grid doubling.

    The spectral method converges faster than any fixed order on this
    analytic data, so a factor of 3 per doubling is a floor, not a fit.
    """
    problems = []
    for name, values in zip(("hamiltonian", "momentum"), zip(*defects)):
        ratios = [a / b if b > 0.0 else np.inf
                  for a, b in zip(values[:-1], values[1:])]
        if not all(r >= factor for r in ratios):
            problems.append(f"{name} defects {values} fall by {ratios}, "
                            f"not >= {factor} per doubling")
    return problems


# ---------------------------------------------------------------------------
# criterion 10: the focusing sweep
# ---------------------------------------------------------------------------

def check_sweep(base_regime, verdict, converged, sup_u, epsilons, base_sup,
                spread_limit=0.10, lipschitz=1.0):
    """The stability sweep's verdict, and stability itself.

    The last row's sup u must lie within lipschitz * eps_last of a base
    solve made apart from the sweep: the solutions of the perturbed data
    converge to the unperturbed one as the perturbation vanishes.
    """
    problems = []
    if base_regime != "Focusing":
        problems.append(f"base regime {base_regime}, not Focusing")
    if not all(converged):
        problems.append("not every solve of the sweep converged")
    if verdict != "Stable-band":
        problems.append(f"verdict {verdict}, not Stable-band")
    spread = (max(sup_u) - min(sup_u)) / min(sup_u)
    if not spread < spread_limit:
        problems.append(f"sup u spread {spread:.3f} not below {spread_limit}")
    gap = abs(sup_u[-1] - base_sup)
    if not gap <= lipschitz * epsilons[-1]:
        problems.append(f"last sup u {sup_u[-1]!r} is {gap:.2e} from the base "
                        f"solve {base_sup!r}, more than "
                        f"{lipschitz} * eps = {lipschitz * epsilons[-1]:.2e}")
    return problems


# ---------------------------------------------------------------------------
# criterion 5: the Lame representation probe
# ---------------------------------------------------------------------------

def check_green(residuals, x0_norm, ratio_range=(1.6, 2.4), final_rel=1e-2):
    """Residuals halve per level and end small relative to |X(0)|.

    Each level shrinks the 4th-order FD step by 2^{1/4}, so the leading
    error halves: each ratio must lie in ratio_range.
    """
    problems = []
    ratios = [a / b if b > 0.0 else np.inf
              for a, b in zip(residuals[:-1], residuals[1:])]
    lo, hi = ratio_range
    if not all(lo <= r <= hi for r in ratios):
        problems.append(f"residual ratios {ratios} not in [{lo}, {hi}]")
    rel = residuals[-1] / x0_norm
    if not rel < final_rel:
        problems.append(f"final residual {rel:.2e} of |X(0)| not below {final_rel}")
    return problems


# ---------------------------------------------------------------------------
# criterion 11: the Pohozaev balance of the exact bubble
# ---------------------------------------------------------------------------

def check_pohozaev(sides, factor=16.0, final=1e-6):
    """Defects fall >= factor per halving (4th order) and end below final.

    sides holds (interior, boundary) per grid, coarse to fine; both sides
    must be nonzero, or a vanishing integrand would pass trivially.
    """
    problems = []
    if not all(i != 0.0 and b != 0.0 for i, b in sides):
        problems.append(f"a side of the balance is zero: {sides}")
    defects = [abs(i - b) for i, b in sides]
    ratios = [a / b if b > 0.0 else np.inf
              for a, b in zip(defects[:-1], defects[1:])]
    if not all(r >= factor for r in ratios):
        problems.append(f"defects {defects} fall by {ratios}, not >= {factor}")
    if not defects[-1] < final:
        problems.append(f"final defect {defects[-1]:.2e} not below {final}")
    return problems
