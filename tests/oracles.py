"""Independent reference computations the tests check the library against.

Everything here deliberately avoids the library's own code paths: explicit
index loops instead of kron/tensordot, the 2x2 quadratic formula instead of
eigh, power iteration instead of eigvalsh, and grid searches instead of
closed forms.
"""

from __future__ import annotations

import numpy as np


def kron_loop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product by explicit index arithmetic."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def joint_ket_loop(theta: float, eta: float) -> np.ndarray:
    """Four-qubit joint ket on wires (Alice, Clare1, Clare2, Bob), by loop."""
    amp_t = (np.cos(theta), np.sin(theta))
    amp_e = (np.cos(eta), np.sin(eta))
    out = np.zeros(16, dtype=complex)
    for a in range(2):
        for c1 in range(2):
            for c2 in range(2):
                for b in range(2):
                    if a == c1 and c2 == b:
                        out[8 * a + 4 * c1 + 2 * c2 + b] = amp_t[a] * amp_e[b]
    return out


def project_clare_loop(psi16: np.ndarray, ket4: np.ndarray) -> tuple[float, np.ndarray]:
    """Project Clare's two qubits onto ket4; returns (prob, normalized AB post)."""
    post = np.zeros(4, dtype=complex)
    for a in range(2):
        for b in range(2):
            acc = 0.0 + 0.0j
            for c1 in range(2):
                for c2 in range(2):
                    acc += np.conj(ket4[2 * c1 + c2]) * psi16[8 * a + 4 * c1 + 2 * c2 + b]
            post[2 * a + b] = acc
    prob = float(np.sum(np.abs(post) ** 2))
    if prob > 1e-15:
        post = post / np.sqrt(prob)
    return prob, post


def eig2_min(rho: np.ndarray) -> float:
    """Smaller eigenvalue of a Hermitian 2x2 matrix via the quadratic formula."""
    a = float(rho[0, 0].real)
    d = float(rho[1, 1].real)
    disc = ((a - d) / 2.0) ** 2 + abs(rho[0, 1]) ** 2
    return (a + d) / 2.0 - np.sqrt(disc)


def reduced_alice_loop(post4: np.ndarray) -> np.ndarray:
    """Alice's 2x2 reduced density operator of an AB ket, by loop."""
    rho = np.zeros((2, 2), dtype=complex)
    for a in range(2):
        for ap in range(2):
            for b in range(2):
                rho[a, ap] += post4[2 * a + b] * np.conj(post4[2 * ap + b])
    return rho


def swap_success_loop(theta: float, eta: float, kets) -> float:
    """End-to-end protocol rate using only the loop primitives above.

    For each middle-station outcome: projection probability times the best
    local-filter success of the leftover state (1 if already maximal).
    """
    psi = joint_ket_loop(theta, eta)
    total = 0.0
    for ket in kets:
        prob, post = project_clare_loop(psi, np.asarray(ket, dtype=complex))
        if prob <= 1e-15:
            continue
        lam_min = eig2_min(reduced_alice_loop(post))
        total += prob * 2.0 * max(lam_min, 0.0)
    return total


def power_norm(a: np.ndarray, iters: int = 500, seed: int = 0) -> float:
    """Largest |eigenvalue| of a Hermitian matrix via power iteration on A^2."""
    a = np.asarray(a, dtype=complex)
    a2 = a @ a
    rng = np.random.default_rng(seed)
    v = rng.normal(size=a.shape[0]) + 1j * rng.normal(size=a.shape[0])
    v = v / np.linalg.norm(v)
    for _ in range(iters):
        w = a2 @ v
        n = np.linalg.norm(w)
        if n == 0.0:
            return 0.0
        v = w / n
    return float(np.sqrt(np.real(np.vdot(v, a2 @ v))))


def best_filter_grid(c0: float, c1: float, steps: int = 4000) -> float:
    """Grid search over two-outcome local filters for the concentration rate.

    Filters diag(x, y) in the Schmidt basis; an outcome succeeds when its
    leftover state is maximally entangled (within grid tolerance).  Returns
    the best success probability found.
    """
    best = 0.0
    for x in np.linspace(0.0, 1.0, steps + 1):
        # over-damp the heavy coefficient so the leftovers balance
        for lo, hi in ((c0, c1), (c1, c0)):
            y = x * lo / hi if hi > 0 else 2.0
            if y <= 1.0:
                p0 = (x * lo) ** 2 + (y * hi) ** 2
                best = max(best, p0)
    return best


def successful_projection(f: np.ndarray, alpha: float, beta: float,
                          beta2: float) -> np.ndarray:
    """A middle-station ket whose outcome leaves the ends maximally entangled.

    The leftover of projecting Sum_t f_t |t>|t> onto |phi> is proportional
    to the matrix [[f0 d0, f1 d1], [f2 d2, f3 d3]] with d = conj(phi); it is
    maximal exactly when that matrix is proportional to a unitary, so the
    family is parametrized by 2x2 unitaries (global phase dropped).
    """
    u = np.array([
        [np.cos(alpha), np.exp(1j * beta) * np.sin(alpha)],
        [-np.exp(1j * beta2) * np.sin(alpha),
         np.exp(1j * (beta + beta2)) * np.cos(alpha)],
    ])
    delta = u.reshape(4) / f
    phi = np.conj(delta)
    return phi / np.linalg.norm(phi)


def random_orthonormal_kets(rng: np.random.Generator, dim: int = 4):
    """Columns of a Haar-ish random unitary via QR."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return [q[:, k] for k in range(dim)]


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    """Random mixed state of the given dimension (full rank by default)."""
    k = rank or dim
    z = rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (z + z.conj().T) / 2.0


def dense_bound(a, b) -> dict:
    """The ceiling's reaching operator built and checked as a dense d^2 x d^2 array.

    From two nonincreasing Schmidt coefficient lists: the shorter list a is
    padded to the longer one's length d, and the ceiling is
    d / sum_k 1 / (a_k b_{d_a-1-k}).  The target pairs basis state k of
    the first pair with k' = d_a-1-k (k' = k beyond d_a), and
    m_i = sqrt(ceiling) outer(omega, conj(omega) / g) with g = sqrt(a x b)
    (zero where a is padded).  The largest eigenvalue of M^dag M comes
    from eigvalsh; the outcome probability and the post-state fidelity
    from the joint g[:, None] * m_i.T.
    """
    a, b = (list(a), list(b)) if len(a) <= len(b) else (list(b), list(a))
    d_a, d = len(a), len(b)
    p = d / sum(1.0 / (a[k] * b[d_a - 1 - k]) for k in range(d_a))
    omega = np.zeros(d * d, dtype=complex)
    g = np.zeros(d * d)
    for i in range(d):
        for k in range(d):
            if i < d_a:
                g[i * d + k] = np.sqrt(a[i] * b[k])
            partner = d_a - 1 - k if k < d_a else k
            if i == partner:
                omega[i * d + k] = 1.0 / np.sqrt(d)
    inv_g = np.array([1.0 / x if x > 0.0 else 0.0 for x in g])
    m = np.sqrt(p) * np.outer(omega, omega.conj() * inv_g)
    top = float(np.linalg.eigvalsh(m.conj().T @ m)[-1])
    joint = g[:, None] * m.T
    achieved = float(np.sum(np.abs(joint) ** 2))
    rho = joint @ joint.conj().T
    fidelity = float(np.real(np.vdot(omega, rho @ omega))) / achieved
    return {"p_max": p, "m_i": m, "top": top, "achieved_p": achieved,
            "post_fidelity": fidelity}
