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
(``refresh.refresh_certified``) before failing; every refresh lands in the
report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .channel import RandomSource
from .cipher import Ciphertext, post_refresh_level, refresh_due
from .errors import CircuitError, NoiseBudgetError, ParameterError
from .homo import hom_add, hom_mul
from .refresh import EvalKeys, refresh_certified

__all__ = [
    "Gate",
    "Circuit",
    "parse_circuit",
    "RefreshPolicy",
    "EvalReport",
    "evaluate",
    "eval_plain",
]


@dataclass(frozen=True)
class Gate:
    """``out = op left right``, with ``op`` either ``add`` or ``mul``; any
    other op is refused here, so the evaluator never runs one."""

    out: str
    op: str
    left: str
    right: str

    def __post_init__(self):
        if self.op not in ("add", "mul"):
            raise CircuitError(f"unknown operation {self.op!r} for gate {self.out!r}")


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

    ``mode`` is "auto" or "off", which disables refreshing entirely; any
    other mode is refused.  ``checker`` is a predicate Pseudociphertext ->
    bool certifying refreshability of a wire's shadow (``cipher.shadow``),
    or None for the public test on the published locator database
    (``refresh.refresh_certified``), which is sound but frequently
    inconclusive; a key owner can pass ``refresh.secret_refresh_checker``.
    """

    mode: str = "auto"
    checker: object = None

    def __post_init__(self):
        if self.mode not in ("auto", "off"):
            raise ParameterError(f"refresh mode must be 'auto' or 'off', got {self.mode!r}")


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

    In auto mode each operand of a gate, in order, is refreshed exactly
    when ``cipher.refresh_due`` says so, against the post-refresh level
    computed once per call.  The gate's own budget guard is the only
    refusal: NoiseBudgetError, naming the gate and its operand levels.  A
    wire is never silently emitted past the decryption bound.
    """
    policy = policy or RefreshPolicy()
    ch = keys.channel
    missing = [name for name in circuit.inputs if name not in env]
    if missing:
        raise CircuitError(f"unbound circuit inputs: {missing}")
    report = EvalReport()
    values = dict(env)
    post = post_refresh_level(ch)

    for gate in circuit.gates:
        for wire in dict.fromkeys((gate.left, gate.right)) if policy.mode == "auto" else ():
            ct = values[wire]
            if not refresh_due(ch, post, gate.op, values[gate.left].level,
                               values[gate.right].level, ct.level):
                continue
            if rng is None:
                raise CircuitError("auto refresh needs a random source")
            fresh = refresh_certified(keys, ct, policy.checker, rng)
            if fresh is not None:
                report.refresh_events.append((wire, ct.level, fresh.level))
                values[wire] = fresh
        left, right = values[gate.left], values[gate.right]
        try:
            if gate.op == "add":
                values[gate.out] = hom_add(ch, left, right)
            else:
                values[gate.out] = hom_mul(ch, keys.tensor, left, right)
        except NoiseBudgetError as exc:
            raise NoiseBudgetError(
                f"gate {gate.out!r} ({gate.op} {gate.left} {gate.right}) "
                f"exceeds the noise budget at levels {left.level}, {right.level}"
            ) from exc

    report.levels = {name: ct.level for name, ct in values.items()}
    return {name: values[name] for name in circuit.outputs}, report
