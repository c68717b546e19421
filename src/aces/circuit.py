"""Arithmetic circuits over ciphertexts and their noise-aware evaluator.

The circuit format is a line-oriented DSL::

    # comments run to end of line
    in a b
    t = add a b
    s = mul t a
    out s

Gates execute in file order, so operands are always declared inputs or
earlier gate outputs.  The evaluator tracks every wire's noise level and,
when a gate would leave too little headroom, tries to refresh its operands
before failing; every decision lands in the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .channel import RandomSource
from .cipher import Ciphertext, level_after, post_refresh_level
from .errors import CircuitError, NoiseBudgetError, ParameterError
from .homo import hom_add, hom_mul
from .refresh import EvalKeys, make_refreshable, publicly_refreshable, refresh_ct

__all__ = [
    "Gate",
    "Circuit",
    "parse_circuit",
    "EvalKeys",
    "RefreshPolicy",
    "EvalReport",
    "evaluate",
    "eval_plain",
]


@dataclass(frozen=True)
class Gate:
    out: str
    op: str
    left: str
    right: str


@dataclass(frozen=True)
class Circuit:
    inputs: tuple[str, ...]
    gates: tuple[Gate, ...]
    outputs: tuple[str, ...]


def parse_circuit(text: str) -> Circuit:
    inputs: list[str] = []
    gates: list[Gate] = []
    outputs: list[str] = []
    known: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "in":
            if len(tokens) < 2:
                raise CircuitError("'in' needs at least one name", lineno)
            for name in tokens[1:]:
                if name in known:
                    raise CircuitError(f"duplicate name {name!r}", lineno)
                known.add(name)
                inputs.append(name)
        elif tokens[0] == "out":
            if len(tokens) < 2:
                raise CircuitError("'out' needs at least one name", lineno)
            for name in tokens[1:]:
                if name not in known:
                    raise CircuitError(f"unknown output {name!r}", lineno)
                outputs.append(name)
        elif len(tokens) == 5 and tokens[1] == "=" and tokens[2] in ("add", "mul"):
            out, _, op, left, right = tokens
            if out in known:
                raise CircuitError(f"duplicate name {out!r}", lineno)
            for operand in (left, right):
                if operand not in known:
                    raise CircuitError(f"undeclared operand {operand!r}", lineno)
            known.add(out)
            gates.append(Gate(out, op, left, right))
        else:
            raise CircuitError(f"malformed statement {line!r}", lineno)
    if not outputs:
        raise CircuitError("circuit declares no outputs")
    return Circuit(tuple(inputs), tuple(gates), tuple(outputs))


def eval_plain(circuit: Circuit, env: dict[str, int], p: int) -> dict[str, int]:
    """Reference evaluation over plain residues mod p."""
    values = dict(env)
    for gate in circuit.gates:
        a, b = values[gate.left], values[gate.right]
        values[gate.out] = (a + b) % p if gate.op == "add" else (a * b) % p
    return {name: values[name] for name in circuit.outputs}


@dataclass(frozen=True)
class RefreshPolicy:
    """When and how the evaluator refreshes.

    ``checker`` is a predicate Ciphertext -> bool certifying refreshability;
    the default uses the published locator database, which is sound but
    frequently inconclusive.  A key owner can pass a secret-side checker
    instead.  ``mode`` is "auto" or "off", which disables refreshing
    entirely; any other mode is refused.
    """

    mode: str = "auto"
    checker: object = None

    def __post_init__(self):
        if self.mode not in ("auto", "off"):
            raise ParameterError(f"refresh mode must be 'auto' or 'off', got {self.mode!r}")

    def resolve_checker(self, keys: EvalKeys):
        if self.checker is not None:
            return self.checker
        return lambda ct: publicly_refreshable(keys.locators, keys.channel, ct)


@dataclass
class EvalReport:
    levels: dict[str, int] = field(default_factory=dict)
    refresh_events: list[tuple[str, int, int]] = field(default_factory=list)


def evaluate(
    circuit: Circuit,
    env: dict[str, Ciphertext],
    keys: EvalKeys,
    policy: RefreshPolicy | None = None,
    rng: RandomSource | None = None,
) -> tuple[dict[str, Ciphertext], EvalReport]:
    """Run the circuit over ciphertexts with level bookkeeping.

    Raises NoiseBudgetError if a gate cannot proceed even after refreshing;
    a wire is never silently emitted past the decryption bound.
    """
    policy = policy or RefreshPolicy()
    ch = keys.channel
    missing = [name for name in circuit.inputs if name not in env]
    if missing:
        raise CircuitError(f"unbound circuit inputs: {missing}")
    report = EvalReport()
    values = dict(env)
    refreshed = post_refresh_level(ch, keys.refresher)
    threshold = ch.max_noise_level() - refreshed
    checker = policy.resolve_checker(keys)

    def try_refresh(wire: str) -> bool:
        ct = values[wire]
        if ct.level <= refreshed:
            return False  # refreshing cannot lower this wire further
        ready = make_refreshable(ct, checker, keys.public, ch, rng)
        if ready is None:
            return False
        fresh = refresh_ct(keys, ready, rng)
        report.refresh_events.append((wire, ct.level, fresh.level))
        values[wire] = fresh
        return True

    def gate_level(gate: Gate):
        return level_after(gate.op, values[gate.left].level, values[gate.right].level, ch)

    for gate in circuit.gates:
        out_level = gate_level(gate)
        if policy.mode == "auto" and (out_level is None or out_level > threshold):
            if rng is None:
                raise CircuitError("auto refresh needs a random source")
            for wire in dict.fromkeys((gate.left, gate.right)):
                if try_refresh(wire):
                    out_level = gate_level(gate)
                    if out_level is not None and out_level <= threshold:
                        break
        if out_level is None:
            raise NoiseBudgetError(
                f"gate {gate.out!r} ({gate.op} {gate.left} {gate.right}) "
                f"exceeds the noise budget at levels "
                f"{values[gate.left].level}, {values[gate.right].level}"
            )
        left, right = values[gate.left], values[gate.right]
        if gate.op == "add":
            values[gate.out] = hom_add(ch, left, right)
        else:
            values[gate.out] = hom_mul(ch, keys.tensor, left, right)

    report.levels = {name: ct.level for name, ct in values.items()}
    return {name: values[name] for name in circuit.outputs}, report
