"""Dense matrices and enumerations that the tests check the library against.

Plain numpy that admits nothing: every caller passes valid arguments.  The
basis order is the package's: component 0 is the least significant base-d
digit of a flat index or code.  The d**d x d**d matrices take 156 MB at d = 5.
"""

import string

import numpy as np

from ginisafe import FunctionMap


def dft(n: int) -> np.ndarray:
    """The unitary DFT of size n, entries exp(2 pi i j k / n)/sqrt(n), with j k reduced mod n exactly."""
    k = np.arange(n)
    return np.exp(2j * np.pi * (np.outer(k, k) % n) / n) / np.sqrt(n)


def kron_chain(ops) -> np.ndarray:
    """The tensor product of per-component operators: ops[i] acts on component i, so the chain runs in reverse."""
    out = ops[-1]
    for op in reversed(ops[:-1]):
        out = np.kron(out, op)
    return out


def local_fourier(d: int) -> np.ndarray:
    """F_L = F tensor ... tensor F on the d**d space, one single-qudit DFT per component."""
    return kron_chain([dft(d)] * d)


def global_fourier(d: int) -> np.ndarray:
    """F_G, the DFT of size d**d on the flat index."""
    return dft(d**d)


def parity_matrix(n: int) -> np.ndarray:
    """The flat parity |j> -> |-j mod n>, the square of the size-n DFT."""
    p = np.zeros((n, n))
    j = np.arange(n)
    p[-j % n, j] = 1.0
    return p


def componentwise_parity(d: int) -> np.ndarray:
    """Each digit j_i -> -j_i mod d on the d**d space, the square of F_L."""
    return kron_chain([parity_matrix(d)] * d)


def elementary_projector(j: int, d: int) -> np.ndarray:
    """The rank-one projector |j><j| on one qudit."""
    p = np.zeros((d, d), dtype=complex)
    p[j, j] = 1.0
    return p


def reduced_density(rho: np.ndarray, i: int) -> np.ndarray:
    """The reduced density of component i of a d**d x d**d density: the partial trace over the rest."""
    d = next(d for d in range(1, 6) if d**d == rho.shape[0])
    t = rho.reshape((d,) * (2 * d))
    # C-order reshape puts component i at axis d - 1 - i (rows) and
    # 2d - 1 - i (columns); all other row/column axis pairs are traced.
    letters = string.ascii_lowercase
    row = list(letters[:d])
    col = list(letters[:d])
    row[d - 1 - i] = "y"
    col[d - 1 - i] = "z"
    return np.einsum("".join(row) + "".join(col) + "->yz", t)


def function_to_matrix(f: FunctionMap) -> np.ndarray:
    """The 0/1 matrix M_f with M_f(i, j) = 1 iff f(i) = j."""
    m = np.zeros((f.d, f.d))
    m[np.arange(f.d), f.images] = 1.0
    return m


def all_function_maps(d: int):
    """All d**d maps in code order."""
    return [FunctionMap.from_code(code, d) for code in range(d**d)]
