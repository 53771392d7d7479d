"""Empirical estimators C_hat, C_hat_plus, K_hat and their errors."""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularEmpiricalMass
from .galerkin import GramPair, KoopmanGalerkinMatrix, Provenance, gram_block, is_singular
from .systems import Regime, SamplePairs


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
