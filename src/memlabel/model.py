"""Small trainable embedding model with hand-written backpropagation.

Architecture: optional hidden affine layer with tanh, output affine layer,
then L2 normalization of the output vector. Gradients are derived by hand;
the normalization Jacobian (I - f f^T) / ||z|| projects out the radial
component of the upstream gradient.
"""

import numpy as np

from .errors import ConfigError, NumericError

_NORM_EPS = 1e-12


class EmbeddingModel:
    """One or two affine maps followed by L2 normalization."""

    def __init__(self, in_dim, out_dim, hidden_dim=None, rng=None, scale=None):
        if in_dim < 1 or out_dim < 1:
            raise ConfigError("model dimensions must be >= 1")
        rng = np.random.default_rng(rng)
        self.in_dim, self.out_dim, self.hidden_dim = in_dim, out_dim, hidden_dim

        def weights(rows, fan_in):
            return rng.normal(0.0, 1.0 / np.sqrt(fan_in) if scale is None else scale,
                              size=(rows, fan_in))

        first = out_dim if hidden_dim is None else hidden_dim
        self.W1, self.b1 = weights(first, in_dim), np.zeros(first)
        self.W2 = self.b2 = None
        if hidden_dim is not None:
            self.W2, self.b2 = weights(out_dim, hidden_dim), np.zeros(out_dim)

    # ---- forward ---------------------------------------------------------

    def _embed(self, X):
        """(unit embeddings, their pre-normalization norms, hidden activations)."""
        H = X @ self.W1.T + self.b1
        A = None if self.W2 is None else np.tanh(H)
        Z = H if A is None else A @ self.W2.T + self.b2
        norms = np.linalg.norm(Z, axis=1)
        if np.any(norms <= _NORM_EPS):
            raise NumericError("zero pre-normalization activation")
        return Z / norms[:, None], norms, A

    def forward(self, X):
        """Unit-norm embeddings for a (B, in_dim) batch or a single vector."""
        X = np.asarray(X, dtype=np.float64)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        if X.shape[1] != self.in_dim:
            raise ConfigError(f"input dim {X.shape[1]} != model in_dim {self.in_dim}")
        F = self._embed(X)[0]
        return F[0] if single else F

    # ---- backward --------------------------------------------------------

    def backward(self, X, upstream):
        """Parameter gradients of a scalar loss given d(loss)/d(features).

        X and upstream are (B, in_dim) and (B, out_dim); gradients over the
        batch are summed (the loss's own 1/B is part of upstream).
        """
        X = np.asarray(X, dtype=np.float64)
        upstream = np.asarray(upstream, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
            upstream = upstream[None, :]
        F, norms, A = self._embed(X)
        # through normalization: gz = (g - (g.f) f) / ||z||
        radial = np.sum(upstream * F, axis=1, keepdims=True)
        GZ = (upstream - radial * F) / norms[:, None]
        grads = {}
        if self.W2 is None:
            grads["W1"] = GZ.T @ X
            grads["b1"] = GZ.sum(axis=0)
        else:
            grads["W2"] = GZ.T @ A
            grads["b2"] = GZ.sum(axis=0)
            GA = GZ @ self.W2
            GH = GA * (1.0 - A**2)
            grads["W1"] = GH.T @ X
            grads["b1"] = GH.sum(axis=0)
        return grads

    def sgd_step(self, grads, lr):
        for name, g in grads.items():
            p = getattr(self, name)
            p -= lr * g

    # ---- flat parameter access (snapshots, finite differences) -----------

    def param_names(self):
        return ["W1", "b1"] if self.W2 is None else ["W1", "b1", "W2", "b2"]

    def get_params(self):
        return np.concatenate([getattr(self, n).ravel() for n in self.param_names()])

    def set_params(self, flat):
        flat = np.asarray(flat, dtype=np.float64)
        expected = sum(getattr(self, n).size for n in self.param_names())
        if flat.size != expected:
            raise ConfigError(
                f"parameter vector has {flat.size} entries, expected {expected}"
            )
        off = 0
        for n in self.param_names():
            p = getattr(self, n)
            p[...] = flat[off : off + p.size].reshape(p.shape)
            off += p.size

    def flatten_grads(self, grads):
        return np.concatenate([grads[n].ravel() for n in self.param_names()])

    def save(self, path):
        arrays = {n: getattr(self, n) for n in self.param_names()}
        np.savez(path, in_dim=self.in_dim, out_dim=self.out_dim,
                 hidden_dim=-1 if self.hidden_dim is None else self.hidden_dim,
                 **arrays)

    @classmethod
    def load(cls, path):
        data = np.load(path)
        hidden = int(data["hidden_dim"])
        model = cls(int(data["in_dim"]), int(data["out_dim"]),
                    hidden_dim=None if hidden < 0 else hidden, rng=0)
        for n in model.param_names():
            getattr(model, n)[...] = data[n]
        return model
