"""The kinetic Monte-Carlo kernel: rate evaluation and event selection.

The kernel implements the classic rejection-free (Gillespie / BKL) algorithm:

1. enumerate every possible event from the current state and its rate,
2. draw the waiting time from an exponential distribution with the total rate,
3. pick one event with probability proportional to its rate and apply it.

One event loop runs every trajectory, plus an oracle:

* The **advance loop** (default) of :mod:`repro.montecarlo.jit` selects and
  applies events over precomputed rate tables.  Because the rates depend
  only on the charge configuration and the trap occupation (the process is
  Markovian), every visited (configuration, trap bits) pair is memoised as
  a :class:`_RateEntry` holding its island potentials, its cumulative rate
  table (tunnel events, then co-tunnel events, then one flip per trap) and
  links to the successor entry of each event.  The free-energy changes come
  from one gather over the island potentials
  (:class:`~repro.core.energy.EventTable`) and the rates from the
  array-valued :func:`~repro.core.rates.orthodox_rate_vec` /
  :func:`~repro.core.rates.cotunneling_rate_vec`.  The island potentials of
  a configuration reached by a tunnel event are derived *incrementally*
  from the parent entry (the event's precomputed ``delta_phi`` column
  combination of ``C^-1``); a full re-solve every ``resync_interval`` new
  entries bounds floating-point drift, and a trap flip, which shifts every
  potential, is always solved exactly.  The memo is invalidated on
  source-voltage or offset changes, detected in O(1) through the circuit's
  version counters.  The loop walks the entries' dense mirrors in an
  :class:`_EnsembleCursor`; :meth:`MonteCarloKernel.run_compiled` runs
  whole trajectories (records and occupation statistics observed one step
  per re-entry) and :meth:`MonteCarloKernel.step` is a one-step call.
* The **reference path** (``fast_path=False``) is the original per-candidate
  scalar implementation, kept verbatim as an independently-derived check; the
  test-suite asserts both paths produce the same rates.

Ensembles have two drivers over the same rate tables.  The **lockstep**
mode (:meth:`MonteCarloKernel.step_ensemble`) advances ``R`` independent
replicas one event each per macro-step, with waiting times, event
selection and state updates executed as batched NumPy operations over all
replicas; replicas in the same configuration share one memoised entry.
The **sequential** mode (:meth:`MonteCarloKernel.run_ensemble_compiled`)
runs each replica's whole budget through the advance loop in turn.  Both
consume the block random buffers in the advance loop's order at
``R = 1``, so an ``R = 1`` ensemble replays a single trajectory event for
event — the
correctness anchor the test-suite enforces.

The kernel is deliberately separated from the user-facing
:class:`~repro.montecarlo.simulator.MonteCarloSimulator` so the same stepping
machinery can be reused by specialised drivers (e.g. the RNG bit sampler).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from ..circuit.netlist import Circuit
from ..core.energy import EnergyModel
from ..core.rates import (
    cotunneling_rate,
    cotunneling_rate_vec,
    orthodox_rate,
    orthodox_rate_vec,
)
from ..errors import SimulationError
from ..resilience.events import emit_degradation
from ..resilience.faults import inject
from .cotunneling import CotunnelTable, enumerate_cotunnel_candidates
from .events import CotunnelCandidate, TrapCandidate, TunnelCandidate
from .jit import (
    BACKEND_PYTHON,
    FREG_DURATION,
    FREG_LAST_WAIT,
    FREG_PENDING_WAIT,
    FREG_SIZE,
    FREG_START,
    FREG_TIME,
    IREG_SIZE,
    REG_EVENTS,
    REG_EXP_POS,
    REG_LAST_EVENT,
    REG_PENDING_EVENT,
    REG_SINGLE_STEP,
    REG_SLOT,
    REG_TRAP_FLIPS,
    REG_TRAP_START,
    REG_UNI_POS,
    STATUS_NEED_EXP,
    STATUS_NEED_LINK,
    STATUS_NEED_UNIFORM,
    STATUS_STEPPED,
    _advance_py,
    resolve_advance,
)
from .observables import EventRecord, OccupationStatistics
from .state import EnsembleState, SimulationState

Candidate = Union[TunnelCandidate, CotunnelCandidate, TrapCandidate]

#: Event budget of a run without ``max_events`` (never reached).
_UNBOUNDED_EVENTS = 1 << 62


@dataclass(slots=True)
class KernelStep:
    """Outcome of one kinetic Monte-Carlo step."""

    waiting_time: float
    candidate: Candidate
    total_rate: float


@dataclass(slots=True)
class EnsembleStep:
    """Outcome of one batched macro-step over all replicas.

    Attributes
    ----------
    waiting_times:
        ``(R,)`` waiting time each replica advanced by an executed event this
        macro-step (0 for replicas that were inactive, blockaded, or whose
        drawn waiting time exceeded the budget).
    event_indices:
        ``(R,)`` flat event index executed per replica (the kernel's
        tunnel-then-cotunnel order), ``-1`` when no event was applied.
    total_rates:
        ``(R,)`` total escape rate of each replica's configuration before
        the step.
    advanced:
        Number of replicas that executed an event.
    """

    waiting_times: np.ndarray
    event_indices: np.ndarray
    total_rates: np.ndarray
    advanced: int


class _EnsembleCursor:
    """Dense mirrors of memoised rate entries, walked by the event loops.

    ``slots[r]`` is the index of replica ``r``'s entry in ``entries`` (the
    single-trajectory cursor tracks no replicas and leaves it empty);
    ``slot_of`` maps ``id(entry)`` back to a slot so successor entries
    discovered during stepping are registered once.  The per-slot data
    (total rates, cumulative tables, last-selectable indices, successor
    slots) is mirrored into dense arrays, ``n_columns`` wide (charge
    events, then one flip per trap), so a step needs no Python: event
    selection is a comparison against the slot's cumulative row and the
    successor lookup one gather, with a slow-path link only the first time
    a (configuration, event) transition is taken.  The cursor is valid for
    one kernel cache epoch; a bias/offset change invalidates it wholesale
    (detected through ``epoch``).
    """

    __slots__ = ("epoch", "slots", "entries", "slot_of", "n_columns",
                 "n_islands", "totals", "cumulative", "last_selectable",
                 "successor_slots", "configurations", "_dirty")

    def __init__(self, epoch: int, slots: np.ndarray,
                 entries: List["_RateEntry"], n_columns: int,
                 n_islands: int) -> None:
        self.epoch = epoch
        self.slots = slots
        self.entries: List["_RateEntry"] = []
        self.slot_of: dict = {}
        self.n_columns = n_columns
        self.n_islands = n_islands
        self.totals = np.empty(0)
        self.cumulative = np.empty((0, n_columns))
        self.last_selectable = np.empty(0, dtype=np.int64)
        #: ``successor_slots[s, k]`` is the slot reached from slot ``s`` via
        #: event ``k``, or ``-1`` when that transition has not been taken yet.
        self.successor_slots = np.empty((0, n_columns), dtype=np.int64)
        #: ``configurations[s]`` is slot ``s``'s canonical electron vector,
        #: used to detect external mutation of ``ensemble.electrons``.
        self.configurations = np.empty((0, n_islands), dtype=np.int64)
        self._dirty = False
        for entry in entries:
            self.register(entry)
        self.refresh()

    def matches(self, electrons: np.ndarray) -> bool:
        """Whether the slot mapping still describes ``electrons``.

        Guards against callers editing ``EnsembleState.electrons`` directly
        between runs (a documented public attribute): a mismatch forces a
        full re-key instead of silently stepping replicas with the rate
        tables of their old configurations.
        """
        return bool(np.array_equal(self.configurations[self.slots], electrons))

    def register(self, entry: "_RateEntry") -> int:
        """Slot of ``entry``, assigning a new one on first sight."""
        slot = self.slot_of.get(id(entry))
        if slot is None:
            slot = len(self.entries)
            self.entries.append(entry)
            self.slot_of[id(entry)] = slot
            self._dirty = True
        return slot

    def refresh(self) -> None:
        """Rebuild the dense per-slot mirrors after new slots were added."""
        if not self._dirty:
            return
        known = self.totals.size
        count = len(self.entries)
        totals = np.empty(count)
        cumulative = np.empty((count, self.n_columns))
        last = np.empty(count, dtype=np.int64)
        successors = np.full((count, self.n_columns), -1, dtype=np.int64)
        configurations = np.empty((count, self.n_islands), dtype=np.int64)
        totals[:known] = self.totals
        cumulative[:known] = self.cumulative
        last[:known] = self.last_selectable
        successors[:known] = self.successor_slots
        configurations[:known] = self.configurations
        for slot in range(known, count):
            entry = self.entries[slot]
            totals[slot] = entry.total
            cumulative[slot] = entry.cumulative
            last[slot] = entry.last_selectable
            configurations[slot] = entry.electrons
        self.totals = totals
        self.cumulative = cumulative
        self.last_selectable = last
        self.successor_slots = successors
        self.configurations = configurations
        self._dirty = False


class _RateEntry:
    """Memoised data of one (configuration, trap occupation) pair.

    ``electrons`` is the canonical configuration vector (never handed out
    without a copy) and ``electron_tuple`` the same as plain ints,
    ``trap_bits`` the occupied traps (bit ``i`` for the circuit's ``i``-th
    trap), ``phi`` the island potentials, ``cumulative``/``total`` the
    inclusive rate table used for event selection, and ``successors`` the
    lazily linked entries reached by each event column.
    """

    __slots__ = ("electrons", "electron_tuple", "trap_bits", "phi",
                 "cumulative", "total", "last_selectable", "successors")

    def __init__(self, electrons: np.ndarray, trap_bits: int,
                 phi: np.ndarray, cumulative: np.ndarray, total: float,
                 last_selectable: int, n_columns: int) -> None:
        self.electrons = electrons
        self.electron_tuple = tuple(int(value) for value in electrons)
        self.trap_bits = trap_bits
        self.phi = phi
        self.cumulative = cumulative
        self.total = total
        self.last_selectable = last_selectable
        self.successors: List[Optional["_RateEntry"]] = [None] * n_columns


class MonteCarloKernel:
    """Rate evaluation and stochastic event selection for one circuit.

    Parameters
    ----------
    circuit:
        The circuit being simulated.
    temperature:
        Temperature in kelvin.
    rng:
        NumPy random generator (the simulator owns the seed policy).
    include_cotunneling:
        Whether second-order (co-tunnelling) channels are simulated.
    fast_path:
        Run events through the advance loop over memoised rate tables
        (default).  Set to ``False`` to run the scalar reference
        implementation instead.
    resync_interval:
        Number of incrementally-derived configurations between full
        island-potential re-solves on the fast path (bounds floating-point
        drift).  ``1`` re-solves for every new configuration.

    The advance loop's backend is resolved once, at construction, by
    :func:`repro.montecarlo.jit.resolve_advance` (pinned with
    ``$REPRO_JIT_BACKEND``); :attr:`backend` names it.
    """

    def __init__(self, circuit: Circuit, temperature: float,
                 rng: np.random.Generator,
                 include_cotunneling: bool = False,
                 fast_path: bool = True,
                 resync_interval: int = 1024) -> None:
        if temperature < 0.0:
            raise SimulationError("temperature must be non-negative")
        if resync_interval < 1:
            raise SimulationError("resync_interval must be at least 1")
        self.circuit = circuit
        self.temperature = float(temperature)
        self.rng = rng
        self.include_cotunneling = include_cotunneling
        self.fast_path = bool(fast_path)
        self.resync_interval = int(resync_interval)
        self.model = EnergyModel(circuit)
        self.tunnel_candidates = [TunnelCandidate(event)
                                  for event in self.model.events()]
        self.cotunnel_candidates: List[CotunnelCandidate] = (
            enumerate_cotunnel_candidates(circuit, self.model)
            if include_cotunneling else []
        )
        self.traps = circuit.charge_traps()

        # ---------------------------------------------- precomputed tables
        self._table = self.model.table
        self._n_tunnel = self._table.size
        self._n_cot = len(self.cotunnel_candidates)
        self._n_events = self._n_tunnel + self._n_cot
        self._cot_table = (CotunnelTable(self.model, self.cotunnel_candidates)
                           if self._n_cot else None)
        self._n_traps = len(self.traps)
        #: Width of a rate row: charge events, then one flip per trap.
        self._n_columns = self._n_events + self._n_traps
        self._trap_capture_rates = np.array(
            [1.0 / trap.capture_time for trap in self.traps], dtype=float)
        self._trap_emission_rates = np.array(
            [1.0 / trap.emission_time for trap in self.traps], dtype=float)
        self._trap_capture_candidates = [TrapCandidate(trap, capture=True)
                                         for trap in self.traps]
        self._trap_emission_candidates = [TrapCandidate(trap, capture=False)
                                          for trap in self.traps]
        # Flat per-event apply data (tunnel events first, then co-tunnels):
        # candidate object, electron-number delta and potential delta, each
        # one list index away.
        self._event_candidates: List[Candidate] = (
            list(self.tunnel_candidates) + list(self.cotunnel_candidates))
        self._event_delta_n = [self._table.delta_n[k]
                               for k in range(self._n_tunnel)]
        self._event_delta_phi = [self._table.delta_phi[k]
                                 for k in range(self._n_tunnel)]
        if self._n_cot:
            self._event_delta_n += [self._cot_table.delta_n[c]
                                    for c in range(self._n_cot)]
            self._event_delta_phi += [self._cot_table.delta_phi[c]
                                      for c in range(self._n_cot)]
        # Dense per-event matrices: row k of ``_delta_n_matrix`` updates all
        # islands of charge event k at once (lockstep ensembles), row k of
        # ``_transfer_matrix`` its per-junction electron-transfer tally (the
        # circuit's junction order, matching EnsembleState.junction_names);
        # the trap-flip rows move no charge.
        n_islands = self.model.island_count
        self._junction_order = {junction.name: column for column, junction
                                in enumerate(circuit.junctions())}
        if self._n_events:
            self._delta_n_matrix = np.vstack(
                [np.asarray(delta, dtype=np.int64)
                 for delta in self._event_delta_n])
        else:
            self._delta_n_matrix = np.zeros((0, n_islands), dtype=np.int64)
        self._transfer_matrix = np.zeros(
            (self._n_columns, len(self._junction_order)), dtype=float)
        for index, candidate in enumerate(self._event_candidates):
            for name, direction in candidate.charge_transfers():
                self._transfer_matrix[index, self._junction_order[name]] \
                    += direction

        # ------------------------------------------- preallocated buffers
        self._rates = np.zeros(self._n_columns, dtype=float)
        self._delta_f = np.empty(self._n_tunnel, dtype=float)

        # ----------------------------------------------- cache bookkeeping
        self._voltages: Optional[np.ndarray] = None
        self._bias_version = -1
        #: Static island offset charges (no trap occupied).
        self._offsets: Optional[np.ndarray] = None
        self._offsets_version = -1
        self._entries_since_resync = 0
        #: Memoised :class:`_RateEntry` per (configuration, trap occupation).
        self._rate_cache: dict = {}
        self._rate_cache_limit = 65536
        # Bumped on every cache clear so cursors (which hold direct entry
        # references) can detect staleness in O(1).
        self._cache_epoch = 0
        # Block-drawn randoms (consumed left to right, refilled on demand).
        self._exp_buffer = np.empty(0)
        self._exp_position = 0
        self._uniform_buffer = np.empty(0)
        self._uniform_position = 0
        self._random_block = 4096

        # ------------------------------------------------------ event loop
        self._backend, self._advance = resolve_advance()
        #: Cursor reused by single-trajectory runs and steps across calls.
        self._scalar_cursor: Optional[_EnsembleCursor] = None
        # Registers and transfer tally reused by every run: a native call
        # reads array addresses, which are cheapest for arrays it has seen.
        self._ireg = np.zeros(IREG_SIZE, dtype=np.int64)
        self._freg = np.zeros(FREG_SIZE)
        self._transfers = np.zeros(len(self._junction_order))

    @property
    def backend(self) -> str:
        """Name of the advance-loop backend this kernel runs."""
        return self._backend

    # ---------------------------------------------------------------- caches

    def _clear_rate_cache(self) -> None:
        """Drop all memoised rate entries and invalidate cursors."""
        self._rate_cache.clear()
        self._cache_epoch += 1

    def invalidate_caches(self) -> None:
        """Drop all cached bias/offset/rate-table data (full refresh next step)."""
        self._voltages = None
        self._bias_version = -1
        self._offsets = None
        self._offsets_version = -1
        self._entries_since_resync = 0
        self._clear_rate_cache()

    def _refresh_bias(self) -> None:
        version = self.circuit.bias_version
        if self._voltages is None or version != self._bias_version:
            self._voltages = self.model.system.cached_source_voltages()
            self._bias_version = version
            self._clear_rate_cache()

    def _refresh_offsets(self) -> None:
        version = self.circuit.charge_version
        if self._offsets is None or version != self._offsets_version:
            self._clear_rate_cache()
            self._offsets = np.array(self.model.system.cached_offset_charges())
            self._offsets_version = version

    def _refresh(self) -> None:
        """O(1) invalidation checks before consulting the memoised tables."""
        self._refresh_bias()
        self._refresh_offsets()

    def _trap_bits_of(self, state: SimulationState) -> int:
        """The trap occupation of ``state`` as bits (trap ``i``: bit ``i``)."""
        bits = 0
        for position, trap in enumerate(self.traps):
            if state.trap_occupancy.get(trap.name, False):
                bits |= 1 << position
        return bits

    def _offsets_for(self, bits: int) -> np.ndarray:
        """Island offset charges with the traps in ``bits`` occupied."""
        offsets = self._offsets.copy()
        for position, trap in enumerate(self.traps):
            if bits >> position & 1:
                offsets[self.model.island_index(trap.island)] += trap.coupling
        return offsets

    # ------------------------------------------------------- batched randoms

    def _drain_buffer(self, sampler, buffer_name: str, position_name: str,
                      count: int) -> np.ndarray:
        """``count`` variates from a block buffer, refilling with ``sampler``.

        Consumes the same stream as the advance loop in the same order
        (including the block refill pattern for ``count`` up to the block
        size), which is what makes a single-replica lockstep ensemble
        replay a single trajectory exactly.
        """
        out = np.empty(count)
        filled = 0
        buffer = getattr(self, buffer_name)
        position = getattr(self, position_name)
        while filled < count:
            if position >= buffer.size:
                buffer = sampler(max(self._random_block, count - filled))
                setattr(self, buffer_name, buffer)
                position = 0
            take = min(buffer.size - position, count - filled)
            out[filled:filled + take] = buffer[position:position + take]
            position += take
            filled += take
        setattr(self, position_name, position)
        return out

    def _draw_exponentials(self, count: int) -> np.ndarray:
        """``count`` standard-exponential variates from the block buffer."""
        return self._drain_buffer(self.rng.standard_exponential,
                                  "_exp_buffer", "_exp_position", count)

    def _draw_uniforms(self, count: int) -> np.ndarray:
        """``count`` standard-uniform variates from the block buffer."""
        return self._drain_buffer(self.rng.random,
                                  "_uniform_buffer", "_uniform_position", count)

    # ------------------------------------------------------------------ rates

    def effective_offsets(self, state: SimulationState) -> np.ndarray:
        """Island offset charges including the contribution of occupied traps.

        The static offset vector is cached and rebuilt only when an offset
        charge actually changed.
        """
        self._refresh()
        return self._offsets_for(self._trap_bits_of(state))

    def _rates_from_phi(self, phi: np.ndarray, bits: int) -> np.ndarray:
        """Fill and return the shared rate buffer (tunnel | cotunnel | trap)."""
        rates = self._rates
        n_tunnel = self._n_tunnel
        n_cot = self._n_cot
        if n_tunnel:
            delta_f = self._table.delta_f(phi, self._voltages, out=self._delta_f)
            orthodox_rate_vec(delta_f, self._table.resistance, self.temperature,
                              out=rates[:n_tunnel])
        if n_cot:
            total, first, second = self._cot_table.channel_energies(self._delta_f)
            rates[n_tunnel:n_tunnel + n_cot] = cotunneling_rate_vec(
                total, first, second,
                self._cot_table.resistance_1, self._cot_table.resistance_2,
                self.temperature)
        if self._n_traps:
            occupied = np.array([bool(bits >> position & 1)
                                 for position in range(self._n_traps)])
            rates[self._n_events:] = np.where(
                occupied, self._trap_emission_rates, self._trap_capture_rates)
        return rates

    def _compute_rates(self, state: SimulationState) -> np.ndarray:
        """Full vectorized rate evaluation from an exact potential solve."""
        self._refresh()
        bits = self._trap_bits_of(state)
        phi = np.asarray(self.model.island_potentials(
            state.electrons, self._voltages, self._offsets_for(bits)),
            dtype=float)
        return self._rates_from_phi(phi, bits)

    def candidate_rates(self, state: SimulationState
                        ) -> Tuple[List[Candidate], np.ndarray]:
        """All candidates and their rates from the current state.

        Tunnel and co-tunnel candidates with zero rate are filtered out (as in
        the reference implementation); trap candidates are always present.
        """
        if not self.fast_path:
            return self.candidate_rates_reference(state)
        rates = self._compute_rates(state)
        candidates: List[Candidate] = []
        kept: List[float] = []
        for index in range(self._n_events):
            rate = rates[index]
            if rate > 0.0:
                candidates.append(self._event_candidates[index])
                kept.append(rate)
        for position, trap in enumerate(self.traps):
            occupied = state.trap_occupancy.get(trap.name, False)
            candidates.append(self._trap_emission_candidates[position] if occupied
                              else self._trap_capture_candidates[position])
            kept.append(rates[self._n_events + position])
        return candidates, np.array(kept, dtype=float)

    def _candidate(self, index: int, bits: int) -> Candidate:
        """The candidate of event column ``index``, given the bits after it.

        A trap column is a capture when it left its trap occupied and an
        emission otherwise.
        """
        if index < self._n_events:
            return self._event_candidates[index]
        position = index - self._n_events
        if bits >> position & 1:
            return self._trap_capture_candidates[position]
        return self._trap_emission_candidates[position]

    # --------------------------------------------------------- memo entries

    def _entry_key(self, electrons: np.ndarray, bits: int):
        key = electrons.tobytes()
        if self._n_traps:
            return (key, bits)
        return key

    def _store_entry(self, key, entry: "_RateEntry") -> None:
        if len(self._rate_cache) >= self._rate_cache_limit:
            self._clear_rate_cache()
        self._rate_cache[key] = entry

    def _build_entry(self, key, electrons: np.ndarray, bits: int,
                     phi: Optional[np.ndarray]) -> "_RateEntry":
        """Create (and memoise) the rate table of one configuration.

        ``phi = None`` forces an exact potential solve; otherwise the caller
        supplies incrementally derived potentials.
        """
        if phi is None:
            phi = np.asarray(self.model.island_potentials(
                electrons, self._voltages, self._offsets_for(bits)),
                dtype=float)
            self._entries_since_resync = 0
        rates = self._rates_from_phi(phi, bits)
        cumulative = np.cumsum(rates)
        total = float(cumulative[-1]) if cumulative.size else 0.0
        # Last positive-rate index: selection clamps to it so a threshold that
        # rounds up to exactly the total can never pick a trailing forbidden
        # (zero-rate) event, matching the reference path's filtered table.
        positive = np.nonzero(rates > 0.0)[0]
        last_selectable = int(positive[-1]) if positive.size else -1
        entry = _RateEntry(electrons, bits, phi, cumulative, total,
                           last_selectable, self._n_columns)
        self._store_entry(key, entry)
        return entry

    def _descend(self, parent: "_RateEntry", index: int) -> "_RateEntry":
        """Entry of the configuration reached from ``parent`` via event ``index``.

        This is where the incremental electrostatics happens: after a charge
        event the successor's island potentials are the parent's plus the
        event's precomputed ``delta_phi`` (a column combination of
        ``C^-1``), skipping the full ``C^-1 (q + B V)`` solve.  Every
        ``resync_interval`` discoveries the potentials are re-solved exactly
        to stop rounding drift.  A trap flip keeps the electrons and flips
        one trap bit; its potentials are always solved exactly.
        """
        if index >= self._n_events:
            bits = parent.trap_bits ^ (1 << (index - self._n_events))
            key = self._entry_key(parent.electrons, bits)
            existing = self._rate_cache.get(key)
            if existing is not None:
                return existing
            return self._build_entry(key, parent.electrons, bits, None)
        electrons = parent.electrons + self._event_delta_n[index]
        key = self._entry_key(electrons, parent.trap_bits)
        existing = self._rate_cache.get(key)
        if existing is not None:
            return existing
        if self._entries_since_resync >= self.resync_interval:
            phi = None
        else:
            phi = parent.phi + self._event_delta_phi[index]
            self._entries_since_resync += 1
        return self._build_entry(key, electrons, parent.trap_bits, phi)

    def _link(self, cursor: _EnsembleCursor, slot: int, event: int) -> int:
        """Link one (slot, event) transition in ``cursor``; the child's slot."""
        parent = cursor.entries[slot]
        child = parent.successors[event]
        if child is None:
            child = self._descend(parent, event)
            parent.successors[event] = child
        child_slot = cursor.register(child)
        cursor.refresh()
        cursor.successor_slots[slot, event] = child_slot
        return child_slot

    # ------------------------------------------------- scalar reference path

    def candidate_rates_reference(self, state: SimulationState
                                  ) -> Tuple[List[Candidate], np.ndarray]:
        """The pre-vectorization scalar implementation, kept as the reference.

        Evaluates every candidate one at a time from freshly computed island
        potentials, with no caching whatsoever.  The fast path must agree with
        this element for element; the equivalence tests enforce it.
        """
        offsets = np.array(self.model.system.offset_charge_vector())
        island_index = self.model.island_index
        for trap in self.traps:
            if state.trap_occupancy.get(trap.name, False):
                offsets[island_index(trap.island)] += trap.coupling
        voltages = self.model.system.source_voltage_vector()
        potentials = self.model.island_potentials(state.electrons, voltages, offsets)
        candidates: List[Candidate] = []
        rates: List[float] = []

        for candidate in self.tunnel_candidates:
            delta_f = self.model.free_energy_change_from_potentials(
                potentials, candidate.event, voltages)
            rate = orthodox_rate(delta_f, candidate.event.junction.resistance,
                                 self.temperature)
            if rate > 0.0:
                candidates.append(candidate)
                rates.append(rate)

        for candidate in self.cotunnel_candidates:
            rate = self._cotunnel_rate(state, candidate, voltages, offsets)
            if rate > 0.0:
                candidates.append(candidate)
                rates.append(rate)

        for trap in self.traps:
            occupied = state.trap_occupancy.get(trap.name, False)
            if occupied:
                candidates.append(TrapCandidate(trap, capture=False))
                rates.append(1.0 / trap.emission_time)
            else:
                candidates.append(TrapCandidate(trap, capture=True))
                rates.append(1.0 / trap.capture_time)

        return candidates, np.array(rates, dtype=float)

    def _cotunnel_rate(self, state: SimulationState, candidate: CotunnelCandidate,
                       voltages: np.ndarray, offsets: np.ndarray) -> float:
        first_cost = self.model.free_energy_change(state.electrons, candidate.first,
                                                   voltages, offsets)
        intermediate = self.model.apply_event(state.electrons, candidate.first)
        second_from_intermediate = self.model.free_energy_change(
            intermediate, candidate.second, voltages, offsets)
        total = first_cost + second_from_intermediate
        # Cost of the opposite ordering (second event first) as the other
        # virtual state energy.
        second_first_cost = self.model.free_energy_change(state.electrons,
                                                          candidate.second,
                                                          voltages, offsets)
        return cotunneling_rate(
            total,
            intermediate_energy_1=first_cost,
            intermediate_energy_2=second_first_cost,
            resistance_1=candidate.first.junction.resistance,
            resistance_2=candidate.second.junction.resistance,
            temperature=self.temperature,
        )

    # ------------------------------------------------------------ event loop

    def _registers(self, slot: int, time: float, duration: Optional[float],
                   single_step: bool
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Reset ``ireg``/``freg`` and a zero transfer tally for one run."""
        ireg, freg, transfers = self._ireg, self._freg, self._transfers
        ireg[:] = 0
        transfers[:] = 0.0
        ireg[REG_SLOT] = slot
        ireg[REG_EXP_POS] = self._exp_position
        ireg[REG_UNI_POS] = self._uniform_position
        ireg[REG_PENDING_EVENT] = -1
        ireg[REG_LAST_EVENT] = -1
        ireg[REG_TRAP_START] = self._n_events
        ireg[REG_SINGLE_STEP] = single_step
        freg[FREG_TIME] = time
        freg[FREG_PENDING_WAIT] = -1.0
        freg[FREG_START] = time
        freg[FREG_DURATION] = np.inf if duration is None else float(duration)
        freg[FREG_LAST_WAIT] = 0.0
        return ireg, freg, transfers

    def _call(self, cursor: _EnsembleCursor, transfers: np.ndarray,
              ireg: np.ndarray, freg: np.ndarray, budget: int) -> int:
        """One call of the advance loop on the kernel's backend.

        The cursor's dense mirrors are fetched per call because
        :meth:`_EnsembleCursor.refresh` reallocates them.  A fault of a
        native call (the ``jit.run_compiled`` site fires before each one)
        moves the kernel to the interpreted loop for good: the native call
        committed nothing, so :func:`_advance_py` continues the same
        trajectory from the same registers and buffers.
        """
        arguments = (cursor.totals, cursor.cumulative, cursor.last_selectable,
                     cursor.successor_slots, self._transfer_matrix, transfers,
                     self._exp_buffer, self._uniform_buffer, ireg, freg,
                     budget)
        if self._advance is not _advance_py:
            try:
                inject("jit.run_compiled")
                return self._advance(*arguments)
            except Exception as error:
                emit_degradation("jit.run_compiled", "fallback:python",
                                 repr(error))
                self._backend, self._advance = BACKEND_PYTHON, _advance_py
        return _advance_py(*arguments)

    def _run_loop(self, cursor: _EnsembleCursor, transfers: np.ndarray,
                  ireg: np.ndarray, freg: np.ndarray, budget: int) -> int:
        """Re-enter the advance loop until it returns a terminal status.

        Serves the loop's requests in between: a random block refill at the
        consumption point (one ``_random_block`` draw, read from position
        zero) or a successor link.  Returns ``STATUS_DONE``,
        ``STATUS_BLOCKED`` or, in single-step mode, ``STATUS_STEPPED``.
        """
        while True:
            status = self._call(cursor, transfers, ireg, freg, budget)
            if status == STATUS_NEED_EXP:
                self._exp_buffer = \
                    self.rng.standard_exponential(self._random_block)
                ireg[REG_EXP_POS] = 0
            elif status == STATUS_NEED_UNIFORM:
                self._uniform_buffer = self.rng.random(self._random_block)
                ireg[REG_UNI_POS] = 0
            elif status == STATUS_NEED_LINK:
                self._link(cursor, int(ireg[REG_SLOT]),
                           int(ireg[REG_PENDING_EVENT]))
            else:
                self._exp_position = int(ireg[REG_EXP_POS])
                self._uniform_position = int(ireg[REG_UNI_POS])
                return status

    def _scalar_cursor_for(self, state: SimulationState
                           ) -> Tuple[_EnsembleCursor, int]:
        """Cursor and slot describing a scalar state's configuration.

        Reuses one cursor across calls so the dense mirrors and successor
        links warm up once; a cache-epoch bump (bias or offset change)
        rebuilds it from scratch, exactly like the ensemble cursor
        revalidation.
        """
        self._refresh()
        electrons = np.ascontiguousarray(state.electrons, dtype=np.int64)
        bits = self._trap_bits_of(state)
        key = self._entry_key(electrons, bits)
        entry = self._rate_cache.get(key)
        if entry is None:
            entry = self._build_entry(key, electrons.copy(), bits, None)
        cursor = self._scalar_cursor
        if not (isinstance(cursor, _EnsembleCursor)
                and cursor.epoch == self._cache_epoch):
            cursor = _EnsembleCursor(self._cache_epoch,
                                     np.empty(0, dtype=np.int64), [entry],
                                     self._n_columns, self.model.island_count)
            self._scalar_cursor = cursor
        slot = cursor.register(entry)
        cursor.refresh()
        return cursor, slot

    def _commit(self, state: SimulationState, cursor: _EnsembleCursor,
                ireg: np.ndarray, freg: np.ndarray,
                transfers: np.ndarray) -> None:
        """Write a finished run's registers back into ``state``."""
        entry = cursor.entries[int(ireg[REG_SLOT])]
        state.time = float(freg[FREG_TIME])
        state.electrons = entry.electrons.copy()
        tallies = state.electron_transfers
        for name, column in self._junction_order.items():
            # The per-event transfer values are small integers, so the
            # aggregated sums are exact and equal one increment per event.
            tallies[name] += float(transfers[column])
        state.event_count += int(ireg[REG_EVENTS])
        for position, trap in enumerate(self.traps):
            state.trap_occupancy[trap.name] = bool(entry.trap_bits
                                                   >> position & 1)

    def step(self, state: SimulationState,
             max_waiting_time: Optional[float] = None) -> Optional[KernelStep]:
        """Execute one kinetic Monte-Carlo step in place.

        Returns ``None`` when no event has a positive rate (a completely
        blockaded circuit at zero temperature) or when the drawn waiting time
        exceeds ``max_waiting_time`` (in which case the state only advances in
        time and nothing is applied).  On the fast path this is one
        single-step call of the advance loop, continuing the random stream of
        earlier steps and runs; a non-positive ``max_waiting_time`` returns
        ``None`` without drawing.
        """
        if not self.fast_path:
            return self._step_reference(state, max_waiting_time)
        cursor, slot = self._scalar_cursor_for(state)
        total_rate = cursor.entries[slot].total
        ireg, freg, transfers = self._registers(
            slot, float(state.time), max_waiting_time, single_step=True)
        self._run_loop(cursor, transfers, ireg, freg, 1)
        self._commit(state, cursor, ireg, freg, transfers)
        if not ireg[REG_EVENTS]:
            return None
        bits = cursor.entries[int(ireg[REG_SLOT])].trap_bits
        return KernelStep(waiting_time=float(freg[FREG_LAST_WAIT]),
                          candidate=self._candidate(int(ireg[REG_LAST_EVENT]),
                                                    bits),
                          total_rate=total_rate)

    def run_compiled(self, state: SimulationState,
                     max_events: Optional[int] = None,
                     duration: Optional[float] = None,
                     records: Optional[List[EventRecord]] = None,
                     occupation: Optional[OccupationStatistics] = None
                     ) -> Tuple[int, int]:
        """Advance a scalar state through the advance loop, in place.

        Executes events, charge transfers and trap flips alike, until the
        budgets (``None``: unbounded) are exhausted or the circuit
        blockades at T = 0 with no time budget, and writes the time,
        configuration, transfers, event count and trap occupation back
        into ``state``.  With ``records`` (one :class:`EventRecord` per
        event) or ``occupation`` (the dwell time of every step, added to
        the configuration it started in) the loop runs in single-step mode
        on the same registers, so the trajectory is the unobserved one.
        Returns ``(events, trap_flips)`` of this run.
        """
        cursor, slot = self._scalar_cursor_for(state)
        budget = _UNBOUNDED_EVENTS if max_events is None else int(max_events)
        observed = records is not None or occupation is not None
        ireg, freg, transfers = self._registers(
            slot, float(state.time), duration, single_step=observed)
        time, executed, entries = float(state.time), 0, cursor.entries
        while self._run_loop(cursor, transfers, ireg, freg,
                             budget) == STATUS_STEPPED:
            now = float(freg[FREG_TIME])
            if occupation is not None:
                occupation.record(entries[slot].electron_tuple, now - time)
            slot, time = int(ireg[REG_SLOT]), now
            if records is not None and ireg[REG_EVENTS] > executed:
                executed += 1
                entry = entries[slot]
                records.append(EventRecord(
                    time=now, electrons=entry.electron_tuple,
                    label=self._candidate(int(ireg[REG_LAST_EVENT]),
                                          entry.trap_bits).label))
        self._commit(state, cursor, ireg, freg, transfers)
        return int(ireg[REG_EVENTS]), int(ireg[REG_TRAP_FLIPS])

    # ------------------------------------------------------------- ensembles

    def _ensure_cursor(self, ensemble: EnsembleState) -> _EnsembleCursor:
        """Resolve (or revalidate) the slot/entry mapping of an ensemble.

        Replicas are grouped by configuration first, so each distinct
        configuration is keyed into the memo exactly once no matter how many
        replicas currently occupy it.
        """
        if not self.fast_path:
            raise SimulationError(
                "ensemble stepping requires the vectorized kernel "
                "(fast_path=True)")
        if self._n_traps:
            raise SimulationError(
                "ensemble stepping does not support charge traps; run "
                "single trajectories for telegraph-noise simulations")
        self._refresh()
        cursor = ensemble.cursor
        if isinstance(cursor, _EnsembleCursor) and \
                cursor.epoch == self._cache_epoch and \
                cursor.matches(ensemble.electrons):
            return cursor
        electrons = np.ascontiguousarray(ensemble.electrons, dtype=np.int64)
        ensemble.electrons = electrons
        unique, inverse = np.unique(electrons, axis=0, return_inverse=True)
        entries: List[_RateEntry] = []
        for row in unique:
            row = np.ascontiguousarray(row)
            key = self._entry_key(row, 0)
            entry = self._rate_cache.get(key)
            if entry is None:
                entry = self._build_entry(key, row.copy(), 0, None)
            entries.append(entry)
        cursor = _EnsembleCursor(self._cache_epoch,
                                 inverse.reshape(-1).astype(np.int64), entries,
                                 self._n_columns, self.model.island_count)
        ensemble.cursor = cursor
        return cursor

    def step_ensemble(self, ensemble: EnsembleState,
                      max_waiting_time=None,
                      active: Optional[np.ndarray] = None) -> EnsembleStep:
        """Advance every (active) replica by at most one event, batched.

        Per macro-step each replica's memoised rate table is gathered through
        the cursor's slot mapping (replicas in the same configuration share
        one :class:`_RateEntry`), then exponential waiting times, event
        selection (grouped ``searchsorted`` per distinct configuration) and
        all state updates run as array operations over the whole ensemble.

        Parameters
        ----------
        ensemble:
            The batched replica state, advanced in place.
        max_waiting_time:
            Optional per-macro-step time budget — a scalar applied to every
            replica or a ``(R,)`` array of per-replica budgets.  Replicas
            whose drawn waiting time exceeds their budget only advance their
            clock by the budget (no event is applied), exactly like the
            advance loop.
        active:
            Optional ``(R,)`` boolean mask; inactive replicas are left
            untouched (no clock advance, no random draws).

        Returns the per-replica :class:`EnsembleStep` outcome.
        """
        cursor = self._ensure_cursor(ensemble)

        replicas = ensemble.replica_count
        slots = cursor.slots
        totals = cursor.totals[slots]

        budgets: Optional[np.ndarray] = None
        if max_waiting_time is not None:
            budgets = np.broadcast_to(
                np.asarray(max_waiting_time, dtype=float), (replicas,))

        if active is None:
            unblocked = None          # the common case: everyone can move
            positive = totals > 0.0
            if not positive.all():
                unblocked = np.nonzero(positive)[0]
                blocked = np.nonzero(~positive)[0]
                # Blockaded replicas burn their whole time budget, as in the
                # advance loop (no randoms are consumed for them).
                if budgets is not None:
                    ensemble.times[blocked] += budgets[blocked]
        else:
            active_indices = np.nonzero(np.asarray(active, dtype=bool))[0]
            active_positive = totals[active_indices] > 0.0
            unblocked = active_indices[active_positive]
            blocked = active_indices[~active_positive]
            if blocked.size and budgets is not None:
                ensemble.times[blocked] += budgets[blocked]

        waiting_times = np.zeros(replicas)
        event_indices = np.full(replicas, -1, dtype=np.int64)
        advanced = 0
        count = replicas if unblocked is None else int(unblocked.size)
        if count:
            exps = self._draw_exponentials(count)
            if unblocked is None:
                waits = exps / totals
            else:
                waits = exps / totals[unblocked]
            proceed: Optional[np.ndarray]
            if budgets is None:
                proceed = unblocked
                proceed_waits = waits
            else:
                unblocked_budgets = budgets if unblocked is None \
                    else budgets[unblocked]
                over = waits > unblocked_budgets
                if over.any():
                    censored = np.nonzero(over)[0] if unblocked is None \
                        else unblocked[over]
                    ensemble.times[censored] += unblocked_budgets[over]
                    proceed = np.nonzero(~over)[0] if unblocked is None \
                        else unblocked[~over]
                    proceed_waits = waits[~over]
                else:
                    proceed = unblocked
                    proceed_waits = waits
            proceed_count = replicas if proceed is None else int(proceed.size)
            if proceed_count:
                uniforms = self._draw_uniforms(proceed_count)
                if proceed is None:
                    proceed_slots = slots
                    thresholds = uniforms * totals
                else:
                    proceed_slots = slots[proceed]
                    thresholds = uniforms * totals[proceed]
                # Event selection: one broadcast comparison against the
                # gathered cumulative rows — ``count(cum <= threshold)`` is
                # exactly ``searchsorted(cum, threshold, side="right")`` —
                # clamped to the last positive-rate event as in the advance
                # loop.
                rows = cursor.cumulative[proceed_slots]
                chosen = np.sum(rows <= thresholds[:, None], axis=1)
                np.minimum(chosen, cursor.last_selectable[proceed_slots],
                           out=chosen)

                successor = cursor.successor_slots[proceed_slots, chosen]
                missing = successor < 0
                if missing.any():
                    self._link_successors(cursor, proceed_slots, chosen,
                                          successor, missing)
                if proceed is None:
                    cursor.slots = successor
                    ensemble.electrons += self._delta_n_matrix[chosen]
                    ensemble.electron_transfers += self._transfer_matrix[chosen]
                    ensemble.times += proceed_waits
                    ensemble.event_counts += 1
                    waiting_times = proceed_waits
                    event_indices = chosen
                else:
                    cursor.slots[proceed] = successor
                    ensemble.electrons[proceed] += self._delta_n_matrix[chosen]
                    ensemble.electron_transfers[proceed] += \
                        self._transfer_matrix[chosen]
                    ensemble.times[proceed] += proceed_waits
                    ensemble.event_counts[proceed] += 1
                    waiting_times[proceed] = proceed_waits
                    event_indices[proceed] = chosen
                advanced = proceed_count

        return EnsembleStep(waiting_times=waiting_times,
                            event_indices=event_indices,
                            total_rates=totals, advanced=advanced)

    def _link_successors(self, cursor: _EnsembleCursor, slots: np.ndarray,
                         chosen: np.ndarray, successor: np.ndarray,
                         missing: np.ndarray) -> None:
        """Resolve not-yet-linked (configuration, event) transitions.

        Each distinct missing pair is linked once (:meth:`_link`) and
        ``successor`` is patched in place.  After the first few macro-steps
        of a stationary run every transition is linked and this slow path
        is never entered.
        """
        width = cursor.n_columns
        pairs = slots[missing] * width + chosen[missing]
        unique_pairs, inverse = np.unique(pairs, return_inverse=True)
        resolved = np.array([self._link(cursor, *divmod(int(pair), width))
                             for pair in unique_pairs], dtype=np.int64)
        successor[missing] = resolved[inverse.reshape(-1)]

    def run_ensemble_compiled(self, ensemble: EnsembleState,
                              max_events: Optional[int] = None,
                              duration: Optional[float] = None) -> int:
        """Advance every replica through the advance loop, in place.

        Replicas run sequentially (sharing the memoised rate tables and
        the block random buffers), each to its own per-replica budget; a
        single-replica ensemble therefore consumes the random stream in
        exactly the single-trajectory order and replays
        :meth:`run_compiled` event for event.  Returns the total number of
        executed events.
        """
        cursor = self._ensure_cursor(ensemble)
        transfers = ensemble.electron_transfers
        if not transfers.flags.c_contiguous or transfers.dtype != np.float64:
            transfers = np.ascontiguousarray(transfers, dtype=float)
            ensemble.electron_transfers = transfers
        budget = _UNBOUNDED_EVENTS if max_events is None else int(max_events)
        executed = 0
        for replica in range(ensemble.replica_count):
            ireg, freg, _ = self._registers(int(cursor.slots[replica]),
                                            float(ensemble.times[replica]),
                                            duration, single_step=False)
            self._run_loop(cursor, transfers[replica], ireg, freg, budget)
            slot = int(ireg[REG_SLOT])
            events = int(ireg[REG_EVENTS])
            cursor.slots[replica] = slot
            ensemble.times[replica] = freg[FREG_TIME]
            ensemble.event_counts[replica] += events
            ensemble.electrons[replica] = cursor.configurations[slot]
            executed += events
        return executed

    def _step_reference(self, state: SimulationState,
                        max_waiting_time: Optional[float] = None
                        ) -> Optional[KernelStep]:
        """The pre-refactor scalar step, driven by :meth:`candidate_rates_reference`."""
        candidates, rates = self.candidate_rates_reference(state)
        total_rate = float(rates.sum()) if rates.size else 0.0
        if total_rate <= 0.0:
            if max_waiting_time is not None:
                state.time += max_waiting_time
            return None

        waiting = float(self.rng.exponential(1.0 / total_rate))
        if max_waiting_time is not None and waiting > max_waiting_time:
            state.time += max_waiting_time
            return None

        threshold = self.rng.uniform(0.0, total_rate)
        cumulative = np.cumsum(rates)
        index = int(np.searchsorted(cumulative, threshold, side="right"))
        index = min(index, len(candidates) - 1)
        chosen = candidates[index]
        state.time += waiting
        chosen.apply(state, self.model)
        state.event_count += 1
        return KernelStep(waiting_time=waiting, candidate=chosen,
                          total_rate=total_rate)


__all__ = ["Candidate", "EnsembleStep", "KernelStep", "MonteCarloKernel"]
