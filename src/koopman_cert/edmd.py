"""Empirical estimators C_hat, C_hat_plus, K_hat and invertibility diagnostics."""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ConfigError, DimensionMismatch, SingularEmpiricalMass
from .galerkin import GramPair, KoopmanGalerkinMatrix, Provenance, gram_block, is_singular
from .systems import FiniteMarkovSystem, Regime, SamplePairs


@dataclass
class EdmdEstimate:
    gram: GramPair
    Khat: np.ndarray
    m: int
    regime: Regime

    def to_json_dict(self):
        d = self.gram.to_json_dict()
        d.update({"Khat": self.Khat.tolist(), "m": self.m, "regime": self.regime.value})
        return d


def empirical_gram(dictionary, pairs: SamplePairs) -> GramPair:
    """C_hat = Psi_X Psi_X^T / m, C_hat_plus = Psi_X Psi_Y^T / m: the B = 1
    case of `galerkin.gram_block`, unregularized."""
    C, Cplus = gram_block(dictionary.evaluate(pairs.xs).T[None],
                          dictionary.evaluate(pairs.ys).T[None], pairs.m)
    return GramPair(C[0], Cplus[0], Provenance("empirical", m=pairs.m, seed=pairs.seed))


def solve_khat(C, Cplus):
    """K_hat from C_hat K_hat = C_hat_plus, behind the singularity gate."""
    if is_singular(C):
        raise SingularEmpiricalMass(
            "empirical mass matrix is numerically singular (need m >= N and "
            "non-degenerate sampling)"
        )
    return np.linalg.solve(C, Cplus)


def edmd_estimate(dictionary, pairs: SamplePairs) -> EdmdEstimate:
    gram = empirical_gram(dictionary, pairs)
    Khat = solve_khat(gram.C, gram.Cplus)
    return EdmdEstimate(gram, Khat, pairs.m, pairs.regime)


def estimation_error(est: EdmdEstimate, ref: KoopmanGalerkinMatrix):
    """Frobenius errors of K_hat, C_hat, C_hat_plus against the exact reference."""
    if est.Khat.shape != ref.KV.shape:
        raise DimensionMismatch(
            f"estimate is {est.Khat.shape}, reference is {ref.KV.shape}"
        )
    return {
        "err_K": float(np.linalg.norm(ref.KV - est.Khat)),
        "err_C": float(np.linalg.norm(ref.source.C - est.gram.C)),
        "err_Cplus": float(np.linalg.norm(ref.source.Cplus - est.gram.Cplus)),
    }


def ergodic_invertibility_condition(sys: FiniteMarkovSystem, dictionary, max_states=12):
    """Check the trajectory-invertibility hypothesis on a finite chain.

    For every subspace spanned by at most N-1 dictionary columns, states
    mapping into the subspace must carry zero transition mass back into its
    preimage.  Sufficient for a.s. invertibility of the empirical mass matrix
    along ergodic trajectories of length >= N+1.
    """
    n = sys.n_states
    if n > max_states:
        raise ConfigError(f"subspace enumeration limited to {max_states} states")
    vals = dictionary.evaluate(np.arange(n))  # (N, n)
    N = dictionary.size
    P = sys.transition
    seen = set()
    for size in range(1, N):
        for subset in combinations(range(n), size):
            basis = vals[:, subset]
            rank = np.linalg.matrix_rank(basis)
            if rank >= N:
                continue
            # preimage of span(basis): states whose column stays in the span
            pre = []
            for x in range(n):
                aug = np.column_stack([basis, vals[:, x]])
                if np.linalg.matrix_rank(aug) == rank:
                    pre.append(x)
            key = tuple(pre)
            if key in seen or not pre:
                continue
            seen.add(key)
            mass = P[np.ix_(pre, pre)].sum(axis=1)
            if np.any(mass > 0):
                return False
    return True
