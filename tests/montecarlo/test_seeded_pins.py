"""Exact seeded outputs of the single-trajectory Monte-Carlo event loop.

Every value below was recorded from the numpy scalar event loop before the
advance loop of :mod:`repro.montecarlo.jit` became the only one.  The pins
cover what that loop alone used to run: charge traps (random telegraph
noise), per-event records, occupation statistics, co-tunnelling, and
successive ``kernel.step()`` calls.  Each case runs on the default backend
and on the interpreted loop (``REPRO_JIT_BACKEND=python``); both must give
these numbers bit for bit.  Floats are compared by ``repr`` (exact
round-trip), record streams by a SHA-256 digest of their ``repr``.
"""

import hashlib

import pytest

from repro.constants import E_CHARGE
from repro.montecarlo import MonteCarloSimulator, OccupationStatistics

from ..conftest import build_set_circuit

BLOCKADE_VOLTAGE = E_CHARGE / 4e-18


@pytest.fixture(params=["default", "python"])
def backend(request):
    """Run the case on the resolved backend, then on the interpreted loop."""
    if request.param == "python":
        request.getfixturevalue("python_backend")
    return request.param


def weak_trap_circuit():
    """The conducting SET with a 0.2 e trap flipping every nanosecond."""
    circuit = build_set_circuit(drain_voltage=0.05, gate_voltage=0.04)
    circuit.add_charge_trap("T1", "dot", 0.2 * E_CHARGE,
                            capture_time=1e-9, emission_time=1e-9)
    return circuit


def strong_trap_circuit():
    """A blockaded SET toggled into conduction by an e/2 trap."""
    circuit = build_set_circuit(drain_voltage=0.03, gate_voltage=0.0)
    circuit.add_charge_trap("T1", "dot", 0.5 * E_CHARGE,
                            capture_time=1e-7, emission_time=1e-7)
    return circuit


def two_trap_circuit():
    """Two traps on one island, so trap bits combine."""
    circuit = build_set_circuit(drain_voltage=0.05, gate_voltage=0.02)
    circuit.add_charge_trap("T1", "dot", 0.3 * E_CHARGE,
                            capture_time=2e-9, emission_time=5e-9)
    circuit.add_charge_trap("T2", "dot", -0.15 * E_CHARGE,
                            capture_time=7e-9, emission_time=3e-9)
    return circuit


def summary(result, state):
    """The pinned fields of one run, floats as exact ``repr`` strings."""
    return {
        "events": result.event_count,
        "duration": repr(result.duration),
        "transfers": {name: repr(value) for name, value
                      in sorted(result.electron_transfers.items())},
        "trap_flips": result.trap_flips,
        "final": result.final_electrons,
        "traps": dict(sorted(state.trap_occupancy.items())),
        "time": repr(state.time),
    }


def digest(records):
    """SHA-256 of a record stream's (time, label, electrons) triples."""
    text = repr([(repr(record.time), record.label, record.electrons)
                 for record in records])
    return hashlib.sha256(text.encode()).hexdigest()


def dwell(occupation):
    return {configuration: repr(seconds) for configuration, seconds
            in sorted(occupation.dwell_times.items())}


def run_pinned(circuit, temperature, seed, cotunneling=False, **budget):
    simulator = MonteCarloSimulator(circuit, temperature=temperature,
                                    seed=seed,
                                    include_cotunneling=cotunneling)
    state = simulator.new_state()
    result = simulator.run(state=state, **budget)
    return result, state


TRAP_RUNS = {
    "weak-events": (weak_trap_circuit, 1.0, 4, dict(max_events=2000)),
    "strong-events": (strong_trap_circuit, 0.1, 6, dict(max_events=4000)),
    "strong-duration": (strong_trap_circuit, 0.1, 6, dict(duration=2e-6)),
    "two-traps": (two_trap_circuit, 1.0, 12, dict(max_events=3000)),
}

@pytest.mark.parametrize("case", sorted(TRAP_RUNS))
def test_trap_runs(backend, case):
    build, temperature, seed, budget = TRAP_RUNS[case]
    result, state = run_pinned(build(), temperature, seed, **budget)
    assert summary(result, state) == TRAP_PINS[case]


def test_trap_run_continues_across_calls(backend):
    # Two runs on one state: the second must resume the trap occupation and
    # the random stream exactly where the first stopped.
    simulator = MonteCarloSimulator(two_trap_circuit(), temperature=1.0,
                                    seed=12)
    state = simulator.new_state()
    simulator.run(max_events=1000, state=state)
    result = simulator.run(max_events=2000, state=state)
    assert summary(result, state) == CONTINUED_TRAP_PIN


RECORD_RUNS = {
    "events": (lambda: build_set_circuit(0.05, 0.04), 1.0, 5,
               dict(max_events=300)),
    "duration": (lambda: build_set_circuit(0.05, 0.04), 1.0, 5,
                 dict(duration=3.3e-9)),
    "trap-events": (weak_trap_circuit, 1.0, 4, dict(max_events=400)),
    "trap-duration": (strong_trap_circuit, 0.1, 6, dict(duration=4e-7)),
}

@pytest.mark.parametrize("case", sorted(RECORD_RUNS))
def test_recorded_runs(backend, case):
    build, temperature, seed, budget = RECORD_RUNS[case]
    simulator = MonteCarloSimulator(build(), temperature=temperature,
                                    seed=seed)
    state = simulator.new_state()
    result = simulator.run(state=state, record_events=True, **budget)
    assert len(result.records) == result.event_count
    assert (summary(result, state), digest(result.records)) \
        == RECORD_PINS[case]


@pytest.mark.parametrize("case", sorted(RECORD_RUNS))
def test_occupation_statistics(backend, case):
    build, temperature, seed, budget = RECORD_RUNS[case]
    simulator = MonteCarloSimulator(build(), temperature=temperature,
                                    seed=seed)
    state = simulator.new_state()
    occupation = OccupationStatistics()
    result = simulator.run(state=state, occupation=occupation, **budget)
    assert (summary(result, state), dwell(occupation)) \
        == OCCUPATION_PINS[case]


def test_records_and_occupation_together(backend):
    simulator = MonteCarloSimulator(two_trap_circuit(), temperature=1.0,
                                    seed=12)
    state = simulator.new_state()
    occupation = OccupationStatistics()
    result = simulator.run(state=state, duration=4e-8, record_events=True,
                           occupation=occupation)
    assert (summary(result, state), digest(result.records),
            dwell(occupation)) == COMBINED_PIN


COTUNNEL_RUNS = {
    "T0-blockade": (0.0, 21, dict(max_events=300)),
    "T0-duration": (0.0, 21, dict(duration=1e-5)),
    "T1-blockade": (1.0, 22, dict(max_events=2000)),
}

@pytest.mark.parametrize("case", sorted(COTUNNEL_RUNS))
def test_cotunnelling_runs(backend, case):
    temperature, seed, budget = COTUNNEL_RUNS[case]
    circuit = build_set_circuit(drain_voltage=0.5 * BLOCKADE_VOLTAGE)
    result, state = run_pinned(circuit, temperature, seed, cotunneling=True,
                               **budget)
    assert summary(result, state) == COTUNNEL_PINS[case]


def step_trace(circuit, seed, censor_at, censor_budget):
    simulator = MonteCarloSimulator(circuit, temperature=1.0, seed=seed)
    state = simulator.new_state()
    trace = []
    for index in range(20):
        budget = censor_budget if index == censor_at else None
        step = simulator.kernel.step(state, max_waiting_time=budget)
        if step is None:
            trace.append((None, repr(state.time)))
        else:
            trace.append((repr(step.waiting_time), step.candidate.label,
                          repr(step.total_rate)))
    trace.append((state.electron_tuple(), state.event_count,
                  dict(sorted(state.trap_occupancy.items())),
                  {name: repr(value) for name, value
                   in sorted(state.electron_transfers.items())}))
    return trace


def test_successive_kernel_steps(backend):
    trace = step_trace(build_set_circuit(0.05, 0.04), 9, 7, 1e-13)
    assert trace == STEP_PIN


def test_successive_kernel_steps_with_a_trap(backend):
    # Traps ten times faster than tunnelling, so the trace flips them.
    circuit = build_set_circuit(drain_voltage=0.05, gate_voltage=0.04)
    circuit.add_charge_trap("T1", "dot", 0.2 * E_CHARGE,
                            capture_time=2e-12, emission_time=1e-12)
    trace = step_trace(circuit, 10, 12, 1e-13)
    assert trace == TRAP_STEP_PIN


# ------------------------------------------------------------ pinned values

TRAP_PINS = {'strong-duration': {'events': 110710,
                     'duration': '2e-06',
                     'transfers': {'J_drain': '-55342.0',
                                   'J_source': '-55344.0'},
                     'trap_flips': 22,
                     'final': (1,),
                     'traps': {'T1': True},
                     'time': '2e-06'},
 'strong-events': {'events': 4000,
                   'duration': '5.5920651613963176e-08',
                   'transfers': {'J_drain': '-1999.0',
                                 'J_source': '-2001.0'},
                   'trap_flips': 0,
                   'final': (1,),
                   'traps': {'T1': True},
                   'time': '5.5920651613963176e-08'},
 'two-traps': {'events': 3000,
               'duration': '2.5848972914691262e-08',
               'transfers': {'J_drain': '-1496.0',
                             'J_source': '-1496.0'},
               'trap_flips': 8,
               'final': (-1,),
               'traps': {'T1': False, 'T2': True},
               'time': '2.5848972914691262e-08'},
 'weak-events': {'events': 2000,
                 'duration': '1.39605814975093e-08',
                 'transfers': {'J_drain': '-994.0',
                               'J_source': '-994.0'},
                 'trap_flips': 12,
                 'final': (1,),
                 'traps': {'T1': True},
                 'time': '1.39605814975093e-08'}}

CONTINUED_TRAP_PIN = {'events': 2000,
 'duration': '1.6886149683739806e-08',
 'transfers': {'J_drain': '-1496.0', 'J_source': '-1496.0'},
 'trap_flips': 4,
 'final': (-1,),
 'traps': {'T1': False, 'T2': True},
 'time': '2.5848972914691262e-08'}

RECORD_PINS = {'duration': ({'events': 399,
               'duration': '3.3e-09',
               'transfers': {'J_drain': '-200.0', 'J_source': '-199.0'},
               'trap_flips': 0,
               'final': (0,),
               'traps': {},
               'time': '3.3e-09'},
              '9b16a07a17c44cc89d8e3ab79ff841c658574daa24e89b5f8d12e8ec061e524d'),
 'events': ({'events': 300,
             'duration': '2.5296413144230776e-09',
             'transfers': {'J_drain': '-150.0', 'J_source': '-150.0'},
             'trap_flips': 0,
             'final': (1,),
             'traps': {},
             'time': '2.5296413144230776e-09'},
            '22616ce9915e569b59b9242067fb1c23e499e6f61db48920288e03bad6a87844'),
 'trap-duration': ({'events': 22083,
                    'duration': '4e-07',
                    'transfers': {'J_drain': '-11038.0',
                                  'J_source': '-11039.0'},
                    'trap_flips': 6,
                    'final': (0,),
                    'traps': {'T1': True},
                    'time': '4e-07'},
                   'bc36a685c5ce25b5dba2b95bd0d7fa6a2fd771e24da09b7d517b173839f23b15'),
 'trap-events': ({'events': 400,
                  'duration': '2.8767247722344914e-09',
                  'transfers': {'J_drain': '-199.0',
                                'J_source': '-198.0'},
                  'trap_flips': 3,
                  'final': (0,),
                  'traps': {'T1': False},
                  'time': '2.8767247722344914e-09'},
                 '8ab5287759979b498b04165cbcb104c14fe0a266be05dd35bc56671ef8f9713b')}

OCCUPATION_PINS = {'duration': ({'events': 399,
               'duration': '3.3e-09',
               'transfers': {'J_drain': '-200.0', 'J_source': '-199.0'},
               'trap_flips': 0,
               'final': (0,),
               'traps': {},
               'time': '3.3e-09'},
              {(0,): '2.4985830034382717e-09',
               (1,): '8.014169965617287e-10'}),
 'events': ({'events': 300,
             'duration': '2.5296413144230776e-09',
             'transfers': {'J_drain': '-150.0', 'J_source': '-150.0'},
             'trap_flips': 0,
             'final': (1,),
             'traps': {},
             'time': '2.5296413144230776e-09'},
            {(0,): '1.9093413432150196e-09',
             (1,): '6.202999712080584e-10'}),
 'trap-duration': ({'events': 22083,
                    'duration': '4e-07',
                    'transfers': {'J_drain': '-11038.0',
                                  'J_source': '-11039.0'},
                    'trap_flips': 6,
                    'final': (0,),
                    'traps': {'T1': True},
                    'time': '4e-07'},
                   {(-1,): '1.2082549931437393e-08',
                    (0,): '3.231249213982824e-07',
                    (1,): '6.479252867028017e-08'}),
 'trap-events': ({'events': 400,
                  'duration': '2.8767247722344914e-09',
                  'transfers': {'J_drain': '-199.0',
                                'J_source': '-198.0'},
                  'trap_flips': 3,
                  'final': (0,),
                  'traps': {'T1': False},
                  'time': '2.8767247722344914e-09'},
                 {(0,): '1.7662217159783973e-09',
                  (1,): '1.1105030562560941e-09'})}

COMBINED_PIN = ({'events': 4598,
  'duration': '4e-08',
  'transfers': {'J_drain': '-2288.0', 'J_source': '-2290.0'},
  'trap_flips': 20,
  'final': (1,),
  'traps': {'T1': True, 'T2': False},
  'time': '4e-08'},
 '6ae6907e30296d677823e86efc2b55be9662bce69143885f3fe4d1d4554d8ed6',
 {(-1,): '5.570181357144338e-09',
  (0,): '3.0029326798109815e-08',
  (1,): '4.40049184474585e-09'})

COTUNNEL_PINS = {'T0-blockade': {'events': 300,
                 'duration': '1.2920328066464574e-07',
                 'transfers': {'J_drain': '-300.0',
                               'J_source': '-300.0'},
                 'trap_flips': 0,
                 'final': (0,),
                 'traps': {},
                 'time': '1.2920328066464574e-07'},
 'T0-duration': {'events': 22962,
                 'duration': '1e-05',
                 'transfers': {'J_drain': '-22962.0',
                               'J_source': '-22962.0'},
                 'trap_flips': 0,
                 'final': (0,),
                 'traps': {},
                 'time': '1e-05'},
 'T1-blockade': {'events': 2000,
                 'duration': '8.533462128326751e-07',
                 'transfers': {'J_drain': '-2000.0',
                               'J_source': '-2000.0'},
                 'trap_flips': 0,
                 'final': (0,),
                 'traps': {},
                 'time': '8.533462128326751e-07'}}

STEP_PIN = [('1.404157451561658e-11',
  'tunnel:J_drain:dot->drain',
  '234226408803.0634'),
 ('6.340421808286349e-12',
  'tunnel:J_source:gnd->dot',
  '77849044919.97768'),
 ('4.0173081352348565e-12',
  'tunnel:J_drain:dot->drain',
  '234226408803.0634'),
 ('1.282904019391089e-11',
  'tunnel:J_source:gnd->dot',
  '77849044919.97768'),
 ('3.4274448736062053e-12',
  'tunnel:J_drain:dot->drain',
  '234226408803.0634'),
 ('1.6961043902167136e-11',
  'tunnel:J_source:gnd->dot',
  '77849044919.97768'),
 ('3.5286220573124773e-12',
  'tunnel:J_drain:dot->drain',
  '234226408803.0634'),
 (None, '6.12454554861345e-11'),
 ('2.8404410707499984e-13',
  'tunnel:J_source:gnd->dot',
  '77849044919.97768'),
 ('1.5120088159287148e-12',
  'tunnel:J_drain:dot->drain',
  '234226408803.0634'),
 ('3.6641586538907775e-11',
  'tunnel:J_source:gnd->dot',
  '77849044919.97768'),
 ('5.789435093797406e-13',
  'tunnel:J_drain:dot->drain',
  '234226408803.0634'),
 ('1.606419781728377e-13',
  'tunnel:J_source:gnd->dot',
  '77849044919.97768'),
 ('3.084200559392086e-11',
  'tunnel:J_drain:dot->drain',
  '234226408803.0634'),
 ('2.880848800582562e-12',
  'tunnel:J_source:gnd->dot',
  '77849044919.97768'),
 ('1.009443685869208e-11',
  'tunnel:J_drain:dot->drain',
  '234226408803.0634'),
 ('5.455133555929395e-12',
  'tunnel:J_source:gnd->dot',
  '77849044919.97768'),
 ('1.3140768042242017e-12',
  'tunnel:J_drain:dot->drain',
  '234226408803.0634'),
 ('8.668844967501422e-12',
  'tunnel:J_source:gnd->dot',
  '77849044919.97768'),
 ('5.665007076483895e-12',
  'tunnel:J_drain:dot->drain',
  '234226408803.0634'),
 ((0,), 19, {}, {'J_drain': '-10.0', 'J_source': '-9.0'})]

TRAP_STEP_PIN = [('1.0546078970223712e-12',
  'tunnel:J_drain:dot->drain',
  '734226408803.0634'),
 ('8.048021815612824e-13', 'trap:T1:capture', '577849044919.9777'),
 ('1.6692745753476162e-12', 'trap:T1:emission', '1127849044919.9749'),
 ('7.743470277009474e-13', 'trap:T1:capture', '577849044919.9777'),
 ('2.7935972628128663e-12', 'trap:T1:emission', '1127849044919.9749'),
 ('8.383108826290927e-14', 'trap:T1:capture', '577849044919.9777'),
 ('1.165227733825796e-12', 'trap:T1:emission', '1127849044919.9749'),
 ('3.9696760899441236e-13', 'trap:T1:capture', '577849044919.9777'),
 ('6.737131276214382e-13', 'trap:T1:emission', '1127849044919.9749'),
 ('1.0249673163463104e-12', 'trap:T1:capture', '577849044919.9777'),
 ('5.200081399173732e-13', 'trap:T1:emission', '1127849044919.9749'),
 ('4.0933718270657104e-13', 'trap:T1:capture', '577849044919.9777'),
 (None, '1.1470681142119894e-11'),
 ('5.627212452886175e-13', 'trap:T1:emission', '1127849044919.9749'),
 ('2.1144877480152154e-12', 'trap:T1:capture', '577849044919.9777'),
 ('2.15602904603924e-12', 'trap:T1:emission', '1127849044919.9749'),
 ('8.167610479905167e-13', 'trap:T1:capture', '577849044919.9777'),
 ('1.023395299906686e-12',
  'tunnel:J_source:gnd->dot',
  '1127849044919.9749'),
 ('9.145123840308408e-14', 'trap:T1:emission', '1184226408803.0635'),
 ('5.130236924182068e-13', 'trap:T1:capture', '734226408803.0634'),
 ((1,), 19, {'T1': True}, {'J_drain': '-1.0', 'J_source': '-1.0'})]
