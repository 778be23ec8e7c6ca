"""Generative model: noisy observations of binary templates, plus dataset IO.

An observation from template P flips each of the n components independently
with probability q.  Mixtures draw the template index from a weight vector
first.  All sampling is keyed by numpy SeedSequence children, one stream per
example index, so datasets are reproducible and order-independent.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .core import as_binary, min_pairwise_distance, pack_rows
from .errors import ParameterError, SeparationUnachievable

__all__ = [
    "MixtureModel",
    "LabeledDataset",
    "child_seed",
    "child_stream",
    "mixture_weights",
    "sample_example",
    "sample_dataset",
    "make_line_templates",
    "make_random_templates",
    "save_dataset",
    "load_dataset",
]


def _as_seed(seed):
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def child_seed(seed, *key):
    """Derive a child SeedSequence at the given key path.

    The rule is purely structural (entropy stays fixed, the key extends
    spawn_key), so children can be built in any order, or in parallel,
    and always coincide with sequential construction.
    """
    root = _as_seed(seed)
    return np.random.SeedSequence(entropy=root.entropy,
                                  spawn_key=tuple(root.spawn_key) + tuple(key))


def child_stream(seed, *key):
    """Generator seeded at the child_seed key path."""
    return np.random.default_rng(child_seed(seed, *key))


@dataclass(eq=False)
class MixtureModel:
    """Ground-truth mixture: k binary templates, weights, and a noise level.

    q = 0 is accepted (useful noiseless edge case) though the estimation
    theory assumes q strictly inside (0, 1/2).
    """

    templates: np.ndarray
    weights: np.ndarray
    q: float

    def __post_init__(self):
        self.templates = np.atleast_2d(as_binary(self.templates))
        self.weights = np.asarray(self.weights, dtype=np.float64).ravel()
        if self.templates.shape[0] != self.weights.shape[0]:
            raise ParameterError("one weight per template required")
        if self.weights.min() <= 0.0:
            raise ParameterError("weights must be positive")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ParameterError("weights must sum to 1")
        if not 0.0 <= self.q < 0.5:
            raise ParameterError("noise level must lie in [0, 1/2)")
        self.q = float(self.q)

    @property
    def k(self):
        return self.templates.shape[0]

    @property
    def dim(self):
        return self.templates.shape[1]

    @property
    def w_min(self):
        return float(self.weights.min())

    @property
    def min_separation(self):
        """Smallest pairwise template distance, in bits."""
        d, _ = min_pairwise_distance(self.templates)
        return d

    @property
    def separation(self):
        """Normalized separation: min pairwise distance over n."""
        return self.min_separation / self.dim


@dataclass(eq=False)
class LabeledDataset:
    """Observations with their hidden component indices."""

    examples: np.ndarray
    labels: np.ndarray
    k: int = field(default=0)

    def __post_init__(self):
        self.examples = np.atleast_2d(as_binary(self.examples))
        self.labels = np.asarray(self.labels, dtype=np.int64).ravel()
        if self.labels.shape[0] != self.examples.shape[0]:
            raise ParameterError("one label per example required")
        if self.k == 0:
            self.k = int(self.labels.max()) + 1 if self.labels.size else 0
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.k):
            raise ParameterError("labels must lie in [0, k)")

    @property
    def m(self):
        return self.examples.shape[0]

    @property
    def dim(self):
        return self.examples.shape[1]

    def members(self, i):
        """Row indices of the examples truly generated by template i."""
        return np.flatnonzero(self.labels == i)


def sample_example(model, rng):
    """Draw (observation, label) from the mixture using the given stream.

    The stream is consumed in a fixed order: one uniform for the label,
    then n uniforms for the flips.
    """
    u = rng.random()
    label = int(np.searchsorted(np.cumsum(model.weights), u, side="right"))
    label = min(label, model.k - 1)  # guard the u == 1.0 endpoint
    flips = (rng.random(model.dim) < model.q).astype(np.uint8)
    return model.templates[label] ^ flips, label


def sample_dataset(model, m, seed):
    """Draw m independent examples; example j uses child_seed(seed, j).

    Parameters
    ----------
    model : MixtureModel
    m : int
        Number of observations, at least 1.
    seed : int or SeedSequence
        Root of the per-example stream tree.

    Returns
    -------
    LabeledDataset
    """
    if m < 1:
        raise ParameterError("need m >= 1 examples")
    root = _as_seed(seed)
    X = np.empty((m, model.dim), dtype=np.uint8)
    y = np.empty(m, dtype=np.int64)
    for j in range(m):
        X[j], y[j] = sample_example(model, child_stream(root, j))
    return LabeledDataset(X, y, k=model.k)


def mixture_weights(k, w_min):
    """Weight vector whose smallest entry is w_min: component 0 gets
    w_min, the rest split the remainder equally.  Needs w_min <= 1/k."""
    if not 0.0 < w_min <= 1.0 / k:
        raise ParameterError(f"w_min {w_min} impossible for k={k}")
    if k == 1:
        return np.ones(1)
    w = np.full(k, (1.0 - w_min) / (k - 1))
    w[0] = w_min
    return w


def make_line_templates(n, c):
    """Two templates at normalized separation c: all zeros, and a prefix
    of floor(c*n) ones.  Products within 1e-9 of an integer count as that
    integer so decimal c values floor as intended."""
    if not 0.0 <= c <= 1.0:
        raise ParameterError("separation must lie in [0, 1]")
    ones = int(math.floor(c * n + 1e-9))
    T = np.zeros((2, n), dtype=np.uint8)
    T[1, :ones] = 1
    return T


def make_random_templates(n, k, c_target, seed, attempts=1000):
    """k uniform random templates, redrawn until min pairwise distance
    is at least c_target*n.  Raises SeparationUnachievable when the
    attempt budget runs out."""
    rng = np.random.default_rng(_as_seed(seed))
    for _ in range(attempts):
        T = rng.integers(0, 2, size=(k, n), dtype=np.uint8)
        if k < 2:
            return T
        d, _ = min_pairwise_distance(T)
        if d >= c_target * n:
            return T
    raise SeparationUnachievable(
        f"no {k} templates at separation {c_target} in {attempts} attempts"
    )


def save_dataset(dataset, path):
    """Write the portable text format: header `n=<n> m=<m> k=<k>`, then one
    `<label> <hex>` line per example, bits packed little-endian within bytes."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"n={dataset.dim} m={dataset.m} k={dataset.k}\n")
        packed = pack_rows(dataset.examples)
        for label, row in zip(dataset.labels, packed):
            fh.write(f"{label} {row.tobytes().hex()}\n")


def load_dataset(path):
    """Inverse of save_dataset.  Malformed files raise ValueError,
    including a header whose m records cannot fit in the rest of the file
    and records past the m-th."""
    with open(path, "r", encoding="ascii") as fh:
        header_line = fh.readline()
        header = header_line.split()
        if [tok.split("=", 1)[0] for tok in header] != ["n", "m", "k"]:
            raise ValueError(f"{path}: bad header line")
        try:
            n, m, k = (int(tok.split("=", 1)[1]) for tok in header)
        except (IndexError, ValueError) as exc:
            raise ValueError(f"{path}: bad header line") from exc
        nbytes = (n + 7) // 8
        # a record is `<label> <hex>\n`: at least 2*nbytes + 3 bytes, less
        # the newline on the last line; check before allocating m x n
        remaining = os.fstat(fh.fileno()).st_size - len(header_line)
        if m * (2 * nbytes + 3) - 1 > remaining:
            raise ValueError(
                f"{path}: header promises {m} records of {n} bits, but only "
                f"{remaining} bytes follow it")
        X = np.empty((m, n), dtype=np.uint8)
        y = np.empty(m, dtype=np.int64)
        for j in range(m):
            line = fh.readline().split()
            if len(line) != 2:
                raise ValueError(f"{path}: bad record at example {j}")
            try:
                y[j] = int(line[0])
                raw = bytes.fromhex(line[1])
            except ValueError as exc:
                raise ValueError(f"{path}: bad record at example {j}") from exc
            if len(raw) != nbytes:
                raise ValueError(f"{path}: wrong bit count at example {j}")
            bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                                 bitorder="little")
            if bits[n:].any():
                raise ValueError(f"{path}: nonzero padding at example {j}")
            X[j] = bits[:n]
        if any(line.strip() for line in fh):
            raise ValueError(f"{path}: records past the header's m={m}")
    if m and not (0 <= y.min() and y.max() < k):
        raise ValueError(f"{path}: label outside [0, k)")
    return LabeledDataset(X, y, k=k)
