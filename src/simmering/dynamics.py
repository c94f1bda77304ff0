"""Thermostat-chain dynamics over flat parameter vectors.

The network parameters are treated as particles of one shared scalar mass
with positions ``x`` and velocities ``v`` moving in the loss landscape; a
chain of thermostat variables (positions ``s_k``, velocities ``v_s_k``,
masses ``Q_k``) couples the particle kinetic energy to a heat bath at the
target temperature.  Chain link 1 reads the particle kinetic energy, every
later link reads the kinetic energy of the link below it, and the last link
sees a zero-velocity boundary.

One step advances the coupled system with a symmetric three-stage splitting
of the phase space into a position-like half (particle positions,
even-numbered chain positions, odd-numbered chain velocities) and a
velocity-like half (particle velocities, odd-numbered chain positions,
even-numbered chain velocities):

- stage 1 advances the position-like half over dt/2,
- stage 2 advances the velocity-like half over dt, evaluating the loss
  gradient exactly once, at the half-step particle positions,
- stage 3 advances the position-like half over the remaining dt/2.

Chain velocity updates use exponential friction factors
``v' = v * exp(-c*dt*w) + c*dt*a * exp(-c*dt*w/2)`` where ``w`` is the
velocity of the next link up (zero past the end of the chain).

:func:`run_trajectory` is the one integrator loop.  It takes the time
step and a :class:`TemperatureSchedule`, the type a config's
``simmer.schedule`` section parses into; the config parser checks the
schedule's ranges, once, and this module trusts them.  The loop records one
row per step, and writes the parameter vectors of the steps it is asked to
keep, one row each as it passes them, into a destination its caller gives:
an array, or in a run the member file, so a run holds no kept state.
The recorded losses depend only on positions the loop has passed, so a
:class:`LossBlock`, the one loss recorder (Adam's too), holds a block of
positions and evaluates them with one stacked call per data set, on a
forked helper while the loop goes on where a core is free for it; the
records, and the order in which errors are raised, are those of a loop
that evaluates every step on its own.  A non-finite quantity aborts the
loop with a :class:`~simmering.net.NonFiniteError` naming the quantity and
the step index.

All state is float64.  Steps are deterministic; the only randomness in the
module is the Maxwell-Boltzmann draw in :func:`initial_velocities`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import parallel, seeding
from .net import NonFiniteError


@dataclass
class ThermostatChain:
    """Positions, velocities and masses of the thermostat links."""

    positions: np.ndarray
    velocities: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.velocities = np.asarray(self.velocities, dtype=np.float64)
        self.masses = np.asarray(self.masses, dtype=np.float64)
        n = self.positions.shape[0]
        if self.positions.ndim != 1 or n < 1:
            raise ValueError("chain needs at least one link")
        if self.velocities.shape != (n,) or self.masses.shape != (n,):
            raise ValueError("chain arrays must share one length")
        if np.any(self.masses <= 0.0):
            raise ValueError("chain masses must be positive")

    @classmethod
    def rest(cls, length: int, mass: float = 1.0) -> "ThermostatChain":
        """A chain of `length` links at rest with uniform mass."""
        if length < 1:
            raise ValueError("chain length must be >= 1")
        return cls(
            positions=np.zeros(length),
            velocities=np.zeros(length),
            masses=np.full(length, float(mass)),
        )

    def copy(self) -> "ThermostatChain":
        return ThermostatChain(
            self.positions.copy(), self.velocities.copy(), self.masses.copy()
        )


@dataclass
class PhaseState:
    """Particle positions/velocities, one scalar particle mass, and the chain."""

    positions: np.ndarray
    velocities: np.ndarray
    masses: float
    chain: ThermostatChain
    step_index: int = 0

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.velocities = np.asarray(self.velocities, dtype=np.float64)
        if self.positions.ndim != 1 or self.velocities.shape != self.positions.shape:
            raise ValueError("positions and velocities must be matching 1-D arrays")
        if np.ndim(self.masses) != 0:
            raise ValueError("the particle mass must be one scalar shared by all particles")
        self.masses = float(self.masses)
        if self.masses <= 0.0:
            raise ValueError("masses must be positive")

    def copy(self) -> "PhaseState":
        return PhaseState(
            self.positions.copy(),
            self.velocities.copy(),
            self.masses,
            self.chain.copy(),
            self.step_index,
        )


@dataclass(frozen=True)
class TemperatureSchedule:
    """Stepped ramp: hold `hold_iterations` steps, raise by `t_step`, clamp.

    ``at(i) = min(t_target, t_initial + t_step * (i // hold_iterations))``.
    A constant schedule is the degenerate ramp with ``t_initial == t_target``.
    ``config`` builds it from ``simmer.schedule`` and checks the ranges
    there: ``0 <= t_initial <= t_target``, ``t_step > 0`` and
    ``hold_iterations >= 1``.
    """

    t_initial: float
    t_target: float
    t_step: float = 1.0
    hold_iterations: int = 1

    def at(self, iteration: int) -> float:
        if iteration < 0:
            raise ValueError("iteration must be >= 0")
        return min(
            self.t_target,
            self.t_initial + self.t_step * (iteration // self.hold_iterations),
        )


def initial_velocities(n: int, temperature: float, seed) -> np.ndarray:
    """Maxwell-Boltzmann draw: each component ~ N(0, sqrt(T)) for unit mass."""
    if temperature < 0.0:
        raise ValueError("temperature must be >= 0")
    rng = seeding.generator(seed)
    return rng.normal(0.0, math.sqrt(temperature), size=n)


# ---------------------------------------------------------------------------
# the step


def _advance(x, v, m, s, vs, q, dt, t_target, grad_fn, step_index, sum_mv2):
    """One integration step, in place.

    ``x``/``v`` are float64 arrays, ``m`` the scalar particle mass,
    ``s``/``vs``/``q`` plain Python lists (the chain is short; scalar math
    keeps the hot loop cheap) and ``sum_mv2`` is ``m * (v @ v)`` on entry.
    Returns ``m * (v @ v)`` on exit.
    """
    n = x.shape[0]
    n_c = len(s)
    half = 0.5 * dt
    quarter = 0.25 * dt
    exp = math.exp

    if not math.isfinite(sum_mv2):
        raise NonFiniteError(f"non-finite velocities entering step {step_index}")

    # stage 1: position-like half over dt/2
    x += half * v
    for p in range(1, n_c, 2):
        s[p] += half * vs[p]
    for p in range(0, n_c, 2):
        if p == 0:
            a = (sum_mv2 - n * t_target) / q[0]
        else:
            a = (q[p - 1] * vs[p - 1] * vs[p - 1] - t_target) / q[p]
        w = vs[p + 1] if p + 1 < n_c else 0.0
        vs[p] = vs[p] * exp(-half * w) + half * a * exp(-quarter * w)

    # stage 2: velocity-like half over dt; the only gradient evaluation,
    # taken at the half-step positions
    g = _named(grad_fn, x, "gradient", step_index)
    w0 = vs[0]
    decay = exp(-dt * w0)
    kick = dt * exp(-half * w0)
    v *= decay
    v -= (kick / m) * g
    for p in range(0, n_c, 2):
        s[p] += dt * vs[p]
    for p in range(1, n_c, 2):
        a = (q[p - 1] * vs[p - 1] * vs[p - 1] - t_target) / q[p]
        w = vs[p + 1] if p + 1 < n_c else 0.0
        vs[p] = vs[p] * exp(-dt * w) + dt * a * exp(-half * w)

    # stage 3: position-like half over the remaining dt/2
    x += half * v
    for p in range(1, n_c, 2):
        s[p] += half * vs[p]
    sum_mv2 = m * float(v @ v)
    for p in range(0, n_c, 2):
        if p == 0:
            a = (sum_mv2 - n * t_target) / q[0]
        else:
            a = (q[p - 1] * vs[p - 1] * vs[p - 1] - t_target) / q[p]
        w = vs[p + 1] if p + 1 < n_c else 0.0
        vs[p] = vs[p] * exp(-half * w) + half * a * exp(-quarter * w)
    return sum_mv2


def _named(fn, x, quantity: str, index: int, unit: str = "step"):
    """``fn(x)``, with a non-finite error naming the quantity and the step
    (or, for Adam, the epoch)."""
    try:
        return fn(x)
    except NonFiniteError as exc:
        _raise_named(exc, quantity, index, unit)


def _raise_named(exc, quantity: str, index: int, unit: str = "step"):
    """Raise ``exc``, unless it is None, as the error :func:`_named` raises."""
    if exc is not None:
        raise NonFiniteError(f"non-finite {quantity} in {unit} {index}: {exc}") from exc


class LossBlock:
    """The one loss recorder: positions held until one stacked call per loss function.

    The integrator and Adam :meth:`push` the positions of each step (or
    epoch), with the step's ``parts``: numbers the recorder holds beside
    them for ``fill``.  When ``rows`` are held, and on :meth:`flush`, each
    function of ``fns`` maps the held ``(C, N)`` stack to ``(C,)`` losses
    in one call, and ``fill(start, results, parts)`` fills those records
    in step order: ``start`` is the loop index of the first held row,
    ``results`` one ``(values, errors)`` pair per function, where
    ``errors`` maps a row to the :class:`NonFiniteError` the function
    raised on it, and ``parts`` the ``(C, len(parts))`` numbers pushed
    with the rows.  A function that raises on the stack is called again
    on each row alone (a row's loss does not depend on its stack), which
    finds those rows; their values are NaN.

    Used as a context manager over a loop of ``steps`` pushes.  Where a
    core is free for it (:func:`parallel.helper_free`) and the loop is
    longer than one block, the stacked calls run in a
    :class:`parallel.Helper` while the loop goes on: the loop writes the
    positions of each block into one of two slots of memory shared with
    the helper, the helper writes the block's losses back beside them,
    and the block is filled, in step order, before its slot is written
    again.  :meth:`flush` returns when every pushed row is filled, and an
    error of a block, or of the helper, is raised by the call that fills
    it; leaving the context stops the helper.  Otherwise every block is
    recorded inline, when it is full.  Either way the records, and the
    errors raised, are those of a loop that records every step on its
    own, and at most two blocks of positions are held.
    """

    def __init__(self, fns, n_params: int, rows: int, fill, steps: int, parts: int = 0):
        self._fns = fns
        self._fill = fill
        self._rows = rows
        self._steps = steps
        self._positions = np.empty((1, rows, n_params))  # slot 0 only, when inline
        self._values = None  # (slot, function, row), shared with the helper
        self._parts = np.empty((2, rows, parts))
        self._helper = None
        self._in_flight = []  # (slot, start, rows) of each block the helper holds
        self._slot = 0
        self._start = 0  # loop index of the first held row
        self.size = 0

    def __enter__(self):
        rows, n_params = self._positions.shape[1:]
        if self._steps > rows and parallel.helper_free():
            self._positions = _shared((2, rows, n_params))
            self._values = _shared((2, len(self._fns), rows))
            self._helper = parallel.Helper(self._serve)
        return self

    def __exit__(self, *exc_info):
        if self._helper is not None:
            self._helper.close()
            self._helper = None

    def push(self, x, parts=()):
        """Hold a copy of ``x`` and ``parts``, and record the block once it is full."""
        self._positions[self._slot, self.size] = x
        self._parts[self._slot, self.size] = parts
        self.size += 1
        if self.size == self._rows:
            self._submit()

    def flush(self):
        """Record every row held or in flight, in step order, and empty the block."""
        self._submit()
        while self._in_flight:
            self._collect()

    def _submit(self):
        """Hand the held rows on: recorded inline, or to the helper."""
        c, slot, start = self.size, self._slot, self._start
        if not c:
            return
        self._start += c
        self.size = 0
        if self._helper is None:
            stack = self._positions[0, :c]
            self._fill(start, [_stacked_losses(fn, stack) for fn in self._fns], self._parts[0, :c])
            return
        self._helper.send(bytes((slot,)) + c.to_bytes(4, "little"))
        self._in_flight.append((slot, start, c))
        self._slot = 1 - slot
        if len(self._in_flight) == 2:  # the next slot's block is filled before it is reused
            self._collect()

    def _collect(self):
        """Fill the oldest block in flight, with the losses the helper wrote."""
        slot, start, c = self._in_flight.pop(0)
        errors = self._helper.receive() or [{}] * len(self._fns)
        results = [(self._values[slot, f, :c], errors[f]) for f in range(len(self._fns))]
        self._fill(start, results, self._parts[slot, :c])

    def _serve(self, request: bytes):
        """In the helper: one block's losses into its slot; the error maps, if any."""
        slot, c = request[0], int.from_bytes(request[1:], "little")
        stack = self._positions[slot, :c]
        errors = []
        for f, fn in enumerate(self._fns):
            self._values[slot, f, :c], found = _stacked_losses(fn, stack)
            errors.append(found)
        return errors if any(errors) else None


def _shared(shape) -> np.ndarray:
    """A float64 array in anonymous memory shared with the processes forked later."""
    import mmap  # imported here, so a loop without a helper costs nothing

    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape))).reshape(shape)


def _stacked_losses(fn, stack):
    """``(values, errors)`` of ``fn`` over ``stack``; see :class:`LossBlock`."""
    try:
        return np.asarray(fn(stack), dtype=np.float64), {}
    except NonFiniteError:
        pass
    values = np.full(stack.shape[0], np.nan)
    errors = {}
    for j in range(stack.shape[0]):
        try:
            values[j] = fn(stack[j : j + 1])[0]
        except NonFiniteError as exc:
            errors[j] = exc
    return values, errors


def _no_test_set(stack):
    """The test losses recorded without a test set: NaN."""
    return np.full(stack.shape[0], np.nan)


# ---------------------------------------------------------------------------
# recorded trajectories


@dataclass
class Trajectory:
    """Per-step records of a finite-temperature run.

    Record ``i`` (0-based) describes the state after completing step ``i+1``;
    the ``iterations`` column is that 1-based step count.  Snapshots hold
    full parameter vectors for the steps the caller asked to keep, and for
    no others: ``snapshots[j]`` is the state after step
    ``snapshot_positions[j] + 1``, i.e. record index
    ``snapshot_positions[j]``, and the positions strictly increase.
    ``snapshots`` is the destination :func:`run_trajectory` wrote them to:
    a ``(kept, N)`` array unless its caller gave another.
    """

    iterations: np.ndarray
    temperature: np.ndarray
    kinetic_temperature: np.ndarray
    loss_train: np.ndarray
    loss_test: np.ndarray
    extended_energy: np.ndarray
    snapshot_positions: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    snapshots: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))

    def __len__(self) -> int:
        return int(self.iterations.shape[0])


def run_trajectory(
    state: PhaseState,
    grad_fn,
    dt: float,
    schedule: TemperatureSchedule,
    n_steps: int,
    loss_train_fn,
    loss_test_fn=None,
    snapshot_steps=None,
    *,
    block: int,
    snapshots=None,
) -> tuple[PhaseState, Trajectory]:
    """Advance ``n_steps`` and record them; the one integrator loop; pure.

    Each step advances by ``dt``, and the target temperature follows
    ``schedule`` evaluated at the state's running step index, so a ramp
    continues correctly across calls.

    One row per step is recorded.  ``loss_train_fn`` supplies the
    potential entering the extended energy; ``loss_test_fn`` is optional
    (NaN recorded when absent).  Both map a ``(C, N)`` stack of positions
    to ``(C,)`` losses, and a :class:`LossBlock` calls each once per
    ``block`` steps (:func:`net.chunk_size` of the network and data sets
    in a run).  Parameter snapshots are kept for the record positions in
    ``snapshot_steps``, a strictly increasing sequence in ``[0, n_steps)``
    (``None`` keeps every step, ``()`` none).  Positions are relative to
    this call.  The ``j``-th kept state is written as ``snapshots[j] = x``,
    in order, into the destination ``snapshots``, which becomes the
    trajectory's ``snapshots``: by default a new ``(kept, N)`` array, or
    whatever the caller gives, such as the runner's file that appends
    each row, so the loop itself holds no kept state.

    A :class:`NonFiniteError` names the quantity and the step index; of
    each step, in this order: velocities, gradient, train loss (its
    outputs, then its value), extended energy, test loss.  An error in a
    later step's advance comes after every error of the steps held before
    it.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    if snapshot_steps is None:
        snap_positions = np.arange(n_steps, dtype=np.int64)
    else:
        snap_positions = np.asarray(snapshot_steps, dtype=np.int64)
        fenced = np.concatenate(([-1], snap_positions.ravel(), [n_steps]))
        if snap_positions.ndim != 1 or np.any(np.diff(fenced) <= 0):
            raise ValueError(
                f"snapshot_steps must strictly increase within [0, {n_steps})"
            )

    out = state.copy()
    s = out.chain.positions.tolist()
    vs = out.chain.velocities.tolist()
    q = out.chain.masses.tolist()
    x, v, m = out.positions, out.velocities, out.masses
    n = x.shape[0]
    n_c = len(s)

    temperature = np.empty(n_steps)
    t_kin = np.empty(n_steps)
    loss_train = np.empty(n_steps)
    loss_test = np.empty(n_steps)
    energy = np.empty(n_steps)
    snaps = np.empty((snap_positions.size, n)) if snapshots is None else snapshots
    # n_steps closes the list: a mark no step index reaches
    snap_marks = snap_positions.tolist() + [n_steps]
    snap_row = 0
    snap_at = snap_marks[0]

    # the extended energy, conserved while the target temperature is
    # constant: kinetic + loss + chain kinetic + N*T*s_1 + T*(s_2 + ...);
    # the terms other than the loss are pushed with each step's positions
    def fill(lo, results, parts):
        (train, train_errors), (test, test_errors) = results
        c = train.shape[0]
        # a non-finite energy is the error raised below, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            e = parts[:, 0] + train
            e += parts[:, 1]
            e += parts[:, 2]
        if test_errors or not np.isfinite(e).all():
            # a non-finite train loss makes the energy non-finite too
            for j in range(c):
                idx = state.step_index + lo + j
                _raise_named(train_errors.get(j), "train loss", idx)
                if not math.isfinite(train[j]):
                    raise NonFiniteError(f"non-finite train loss in step {idx}")
                if not math.isfinite(e[j]):
                    raise NonFiniteError(f"non-finite extended energy in step {idx}")
                _raise_named(test_errors.get(j), "test loss", idx)
        loss_train[lo : lo + c] = train
        energy[lo : lo + c] = e
        loss_test[lo : lo + c] = test

    rows = max(1, min(block, n_steps))
    fns = (loss_train_fn, loss_test_fn or _no_test_set)
    with LossBlock(fns, n, rows, fill, n_steps, parts=3) as losses:
        sum_mv2 = m * float(v @ v)
        for i in range(n_steps):
            idx = out.step_index + i
            t_now = schedule.at(idx)
            try:
                sum_mv2 = _advance(x, v, m, s, vs, q, dt, t_now, grad_fn, idx, sum_mv2)
            except Exception:
                losses.flush()  # the held steps' errors come first
                raise
            temperature[i] = t_now
            t_kin[i] = sum_mv2 / n
            if i == snap_at:
                snaps[snap_row] = x
                snap_row += 1
                snap_at = snap_marks[snap_row]
            losses.push(
                x,
                (
                    0.5 * sum_mv2,
                    0.5 * sum(q[k] * vs[k] * vs[k] for k in range(n_c)),
                    n * t_now * s[0] + t_now * sum(s[1:]),
                ),
            )
        losses.flush()

    out.chain.positions[...] = s
    out.chain.velocities[...] = vs
    out.step_index = state.step_index + n_steps
    traj = Trajectory(
        iterations=np.arange(1, n_steps + 1, dtype=np.int64),
        temperature=temperature,
        kinetic_temperature=t_kin,
        loss_train=loss_train,
        loss_test=loss_test,
        extended_energy=energy,
        snapshot_positions=snap_positions,
        snapshots=snaps,
    )
    return out, traj
