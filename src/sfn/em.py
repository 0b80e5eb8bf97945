"""Reference-free maximum-likelihood estimators fitted to picked patches.

Two estimators share the machinery: a Gaussian mixture with one shared
isotropic covariance for 2D class averages, and a single-volume model over
a discrete rotation grid for 3D reconstruction. Both run standard EM in
the log domain and are deterministic for a fixed seed.

``_fit`` is the one EM loop and owns the iteration policy: the row norms,
the uniform prior over the latent values, the seeded restarts, the
E-step, the stop tests (a step that lowers the likelihood beyond
``TRACE_TOL`` is rejected and the fit stops at the previous parameters;
a change within ``rel_tol`` converges) and the choice of the best
restart. It also forms the only two products with the data,
``flat @ S.T`` and ``resp.T @ flat``. The restarts run in lockstep: each
iteration forms each product once, over the stacked models of every
running restart, so the stack (whose products are bound by memory traffic
at 16^3 patches) is read once per product, not once per restart. A fit's
bytes are a function of its inputs, of which of its restarts are still
running and of the BLAS thread count (README, **em**). The E-step forms
the log joint in place in the restart's block of the product and takes
its row log-sum-exp in-package (``_row_logsumexp``, scipy's arithmetic);
the responsibilities are written over the same block. Each estimator
supplies only its start, its model signals and its M-step from the
responsibilities and their product with the data.
``_save_state``/``_load_state`` hold the one on-disk layout of a fitted
state: a tensor, a likelihood trace and a meta table.

The models are deliberately plain Gaussians; picked data actually follow
truncated laws, and quantifying what the mismatch does to the estimates is
the whole point of the surrounding experiments.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ArgumentError,
    DegenerateDataError,
    ShapeError,
)
from .rng import STREAM_EM_INIT, generator
from .tensors import (
    RotationGrid,
    RotationPlan,
    malformed,
    read_meta,
    read_table,
    read_tensor,
    write_meta,
    write_table,
    write_tensor,
)

# relative slack for the monotone log-likelihood invariant
TRACE_TOL = 1e-9


def _check_trace(trace):
    trace = np.asarray(trace, dtype=np.float64)
    if not np.all(np.isfinite(trace)):
        raise ArgumentError("log-likelihood trace contains non-finite values")
    if trace.size > 1:
        floor = trace[:-1] - TRACE_TOL * np.maximum(1.0, np.abs(trace[:-1]))
        if np.any(trace[1:] < floor):
            worst = int(np.argmin(trace[1:] - floor))
            raise ArgumentError(
                f"log-likelihood decreased at iteration {worst + 1}: "
                f"{trace[worst]} -> {trace[worst + 1]}"
            )
    return trace


def _check_fit_settings(config):
    """The settings both EM configs share."""
    if not (np.isfinite(config.sigma) and config.sigma > 0):
        raise ArgumentError("sigma must be positive and finite")
    if config.max_iters < 1:
        raise ArgumentError("max_iters must be at least 1")
    if not (np.isfinite(config.rel_tol) and config.rel_tol > 0):
        raise ArgumentError("rel_tol must be positive and finite")
    if config.restarts < 1:
        raise ArgumentError("restarts must be at least 1")


@dataclass(frozen=True)
class Gmm2dConfig:
    """Settings for the shared-isotropic-covariance mixture fit."""

    class_count: int
    sigma: float = 1.0
    max_iters: int = 200
    rel_tol: float = 1e-8
    restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.class_count < 1:
            raise ArgumentError("class_count must be at least 1")
        _check_fit_settings(self)


@dataclass(frozen=True)
class Gmm2dState:
    """Fitted mixture under uniform class weights: class means, the class
    totals they were formed from, and the likelihood trace."""

    means: np.ndarray
    log_likelihoods: np.ndarray
    class_totals: np.ndarray
    converged: bool

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64)
        totals = np.asarray(self.class_totals, dtype=np.float64)
        if totals.shape != means.shape[:1]:
            raise ArgumentError(f"need one class total per class mean, got shape {totals.shape}")
        if not np.all(np.isfinite(totals)) or np.any(totals < 0):
            raise ArgumentError("class totals must be finite and nonnegative")
        trace = _check_trace(self.log_likelihoods)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "log_likelihoods", trace)
        object.__setattr__(self, "class_totals", totals)


def _patch_stack(picks):
    stack = np.asarray(getattr(picks, "patches", picks), dtype=np.float64)
    if stack.ndim < 2:
        raise ShapeError("expected a stack of patches")
    return stack


def _row_norms(flat):
    return np.einsum("ij,ij->i", flat, flat)


def _row_logsumexp(a):
    """``log(sum(exp(row)))`` of each row of ``a``, with the arithmetic of
    ``scipy.special.logsumexp(a, axis=1)`` (scipy 1.17), byte for byte.

    The shifted log-sum-exp (Blanchard, Higham & Higham 2021): the row
    maximum and its ``m`` ties are taken out of the sum ``s`` of the
    other shifted exponentials, so the result is ``log1p(s / m) + log(m) +
    max``. (scipy keeps ``s`` where it is 0, which ``s / m`` equals.) A
    row of minus infinity gives minus infinity and a row holding plus
    infinity (and no NaN) plus infinity, as scipy's fallback does.
    """
    top = a.max(axis=1)
    ties = a == top[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        rest = np.subtract(a, top[:, None])
        np.exp(rest, out=rest)
        np.copyto(rest, 0.0, where=ties)
        rest = rest.sum(axis=1)
        count = np.count_nonzero(ties, axis=1).astype(np.float64)
        rest /= count
        return np.log1p(rest) + np.log(count) + top


def _log_posteriors(cross, flat_norms, means_flat, log_prior, sigma):
    """Log evidence of each row under isotropic Gaussians; ``cross`` is
    overwritten with the log joint of each row and class.

    ``cross`` is the product ``flat @ means_flat.T`` and ``flat_norms`` is
    ``_row_norms(flat)``, constant over a fit. The log joint is formed in
    place with the operations, and operand order, of ``log_prior -
    (flat_norms - 2 cross + |means|^2) / (2 sigma^2) - const``, so no
    temporary of the product's size is built; doubling the product rather
    than the stack is exact either way.
    """
    log_prob = np.multiply(cross, 2.0, out=cross)
    np.subtract(flat_norms[:, None], log_prob, out=log_prob)
    log_prob += _row_norms(means_flat)[None, :]
    log_prob /= 2.0 * sigma ** 2
    np.subtract(log_prior[None, :], log_prob, out=log_prob)
    log_prob -= 0.5 * means_flat.shape[1] * np.log(2.0 * np.pi * sigma ** 2)
    return _row_logsumexp(log_prob)


class _Restart:
    """One seeded restart: its parameters, the step before them and its trace."""

    def __init__(self, params):
        self.params = params
        self.previous = None
        self.trace = []
        self.converged = False

    def stops(self, ll, rel_tol):
        """Take the log-likelihood of the current parameters; whether the
        restart ends here instead of stepping. A fall beyond ``TRACE_TOL``
        rejects the last step: the parameters go back and the trace keeps
        its last entry. A change within ``rel_tol`` converges."""
        trace = self.trace
        if trace and ll < trace[-1] - TRACE_TOL * max(1.0, abs(trace[-1])):
            self.params = self.previous
            self.converged = True
            return True
        self.converged = bool(trace) and abs(ll - trace[-1]) <= rel_tol * max(1.0, abs(ll))
        trace.append(ll)
        return self.converged

    def step(self, params):
        self.previous, self.params = self.params, params


def _iteration(flat, flat_norms, live, log_prior, expected, update, config):
    """One EM iteration of the running restarts; the restarts that stepped.

    Each restart's responsibilities are written over its block of the
    E-step product, so the iteration holds one product's worth of blocks.
    """
    signals = [expected(restart.params) for restart in live]
    # The stacked signals are a temporary: kept alive through the iteration,
    # they made 660 x 16^3 fits with 2 x 12 rows measurably slower.
    crosses = np.split(flat @ np.concatenate(signals).T, len(live), axis=1)
    stepping, blocks = [], []
    for restart, signal, cross in zip(live, signals, crosses):
        log_norm = _log_posteriors(cross, flat_norms, signal, log_prior, config.sigma)
        if not restart.stops(float(log_norm.sum()), config.rel_tol):
            cross -= log_norm[:, None]
            np.exp(cross, out=cross)
            stepping.append(restart)
            blocks.append(cross)
    if not stepping:
        return stepping
    sums = np.split(np.concatenate(blocks, axis=1).T @ flat, len(stepping))
    for restart, block, block_sums in zip(stepping, blocks, sums):
        restart.step(update(restart.params, block, block_sums))
    return stepping


def _fit(flat, config, latents, init, expected, update, make_state):
    """EM on the rows of ``flat``; the state of the best restart.

    The prior over the ``latents`` latent values is uniform, formed once
    per fit. ``init(rng)`` starts a restart, ``expected(params)`` gives the
    model signals (one flat row per latent value), ``update(params, resp,
    sums)`` is the M-step, given the responsibilities and ``sums = resp.T
    @ flat``, and ``make_state(params, trace, converged)`` builds the
    validated state. A rejected step leaves
    the parameters of the last trace entry; only a strictly higher final
    log-likelihood replaces an earlier restart.

    The restarts run in lockstep, and ``_fit`` forms the only two products
    with the data: each iteration takes one E-step product ``flat @ S.T``
    over the stacked signals of every running restart, and one M-step
    product over the stacked responsibilities of every restart that steps.
    So the stack is read once per product, not once per restart.
    """
    flat_norms = _row_norms(flat)
    log_prior = np.log(np.full(latents, 1.0 / latents))
    restarts = [
        _Restart(init(generator(config.seed, STREAM_EM_INIT + index)))
        for index in range(config.restarts)
    ]
    live = restarts
    for _ in range(config.max_iters):
        if not live:
            break
        live = _iteration(flat, flat_norms, live, log_prior, expected, update, config)
    best = None
    for restart in restarts:
        state = make_state(restart.params, np.asarray(restart.trace), restart.converged)
        if best is None or state.log_likelihoods[-1] > best.log_likelihoods[-1]:
            best = state
    return best


def em_classify2d(picks, config):
    """Fit the postulated Gaussian mixture to the picked patches.

    Runs the configured number of freshly seeded EM restarts and keeps the
    one with the best final log-likelihood. The class weights are fixed
    uniform; the parameters are the means and the class totals they were
    formed from, which start as the counts the uniform weights expect.
    """
    stack = _patch_stack(picks)
    count = stack.shape[0]
    if count < config.class_count:
        raise ArgumentError(
            f"need at least {config.class_count} patches, got {count}"
        )
    flat = stack.reshape(count, -1)
    if count > 1 and float(np.ptp(flat, axis=0).max(initial=0.0)) < 1e-15:
        raise DegenerateDataError("all patches are identical")
    classes = config.class_count

    def init(rng):
        means = config.sigma * rng.standard_normal((classes, flat.shape[1]))
        return means, count * np.full(classes, 1.0 / classes)

    def update(params, resp, sums):
        totals = resp.sum(axis=0)
        if totals.min() < 1e-300:
            raise DegenerateDataError("a class lost all responsibility mass")
        return sums / totals[:, None], totals

    def make_state(params, trace, converged):
        means, totals = params
        return Gmm2dState(means.reshape((classes,) + stack.shape[1:]), trace, totals, converged)

    return _fit(flat, config, classes, init, lambda params: params[0], update, make_state)


@dataclass(frozen=True)
class Recon3dConfig:
    """Settings for the discrete-rotation volume fit."""

    grid: RotationGrid
    sigma: float = 1.0
    max_iters: int = 200
    rel_tol: float = 1e-8
    restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if len(self.grid) < 1:
            raise ArgumentError("rotation grid is empty")
        _check_fit_settings(self)


@dataclass(frozen=True)
class Recon3dState:
    """Fitted volume and its likelihood trace."""

    volume: np.ndarray
    log_likelihoods: np.ndarray
    converged: bool

    def __post_init__(self):
        trace = _check_trace(self.log_likelihoods)
        object.__setattr__(self, "volume", np.asarray(self.volume, dtype=np.float64))
        object.__setattr__(self, "log_likelihoods", trace)


def em_reconstruct3d(picks, config):
    """Fit one volume to cubic patches observed under unknown rotations.

    The E-step assigns each patch a posterior over the grid rotations under
    a uniform prior; the M-step averages back-rotated patches with
    per-voxel coverage weights. Two trilinear ``RotationPlan`` gathers,
    built once per fit, do every rotation:
    the forward plan turns the volume by the whole grid, and the inverse
    plan gives the coverage and back-rotates each rotation's weighted sum
    of patches, the same bytes as one ``rotate_volume`` per rotation.
    Because interpolated rotation is not exactly unitary the update can in
    rare cases reduce the likelihood; such steps are rejected and the fit
    stops at the previous volume, keeping the trace monotone.
    """
    stack = _patch_stack(picks)
    if stack.ndim != 4 or len(set(stack.shape[1:])) != 1:
        raise ShapeError("expected a stack of cubic patches")
    count = stack.shape[0]
    if count == 0:
        raise ArgumentError("no patches to reconstruct from")
    dims = stack.shape[1:]
    flat = stack.reshape(count, -1)
    rotations = list(config.grid)
    forward = RotationPlan(dims[0], rotations)
    backward = RotationPlan(dims[0], [rotation.inverse() for rotation in rotations])
    coverage = backward.apply(np.ones(dims))

    def expected(volume):
        return forward.apply(volume).reshape(len(rotations), -1)

    def update(volume, resp, sums):
        rotation_totals = resp.sum(axis=0)
        back = backward.apply(sums.reshape((len(rotations),) + dims))
        numer = np.zeros(dims)
        denom = np.zeros(dims)
        for index in range(len(rotations)):
            numer += back[index]
            denom += rotation_totals[index] * coverage[index]
        return np.where(denom > 1e-12, numer / np.where(denom > 1e-12, denom, 1.0), 0.0)

    return _fit(
        flat, config, len(rotations), lambda rng: config.sigma * rng.standard_normal(dims),
        expected, update, Recon3dState,
    )


def _save_state(directory, name, tensor_suffix, tensor, state, lists=()):
    """Write ``<name><tensor_suffix>.sfn``, the trace ``<name>_trace.csv`` and
    ``<name>_meta.csv`` (``converged`` and each named array of ``state`` as
    ``;``-joined values); return the tensor path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tensor_path = write_tensor(directory / f"{name}{tensor_suffix}.sfn", tensor)
    trace = state.log_likelihoods
    deltas = np.diff(trace, prepend=trace[:1])
    rows = zip(range(len(trace)), trace, deltas)
    write_table(directory / f"{name}_trace.csv", ("iter", "log_lik", "delta"), rows)
    meta = [("converged", int(state.converged))]
    meta += [(key, ";".join("%.17g" % v for v in getattr(state, key))) for key in lists]
    write_meta(directory / f"{name}_meta.csv", meta)
    return tensor_path


def _load_state(directory, name, tensor_suffix, lists=()):
    """What ``_save_state`` wrote: the tensor, then the other state fields by name."""
    directory = Path(directory)
    tensor = read_tensor(directory / f"{name}{tensor_suffix}.sfn")
    trace_path = directory / f"{name}_trace.csv"
    _, rows = read_table(trace_path, ("log_lik",))
    with malformed(trace_path):
        fields = {"log_likelihoods": np.asarray([float(row["log_lik"]) for row in rows])}
    meta_path = directory / f"{name}_meta.csv"
    meta = read_meta(meta_path, ("converged", *lists))
    with malformed(meta_path):
        fields.update((key, np.array([float(v) for v in meta[key].split(";")])) for key in lists)
        fields["converged"] = bool(int(meta["converged"]))
    return tensor, fields


def save_gmm_state(state, directory):
    return _save_state(directory, "classes", "_means", state.means, state, ("class_totals",))


def load_gmm_state(directory):
    means, fields = _load_state(directory, "classes", "_means", ("class_totals",))
    return Gmm2dState(means=means, **fields)


def save_recon_state(state, directory):
    return _save_state(directory, "volume", "", state.volume, state)


def load_recon_state(directory):
    volume, fields = _load_state(directory, "volume", "")
    return Recon3dState(volume=volume, **fields)
