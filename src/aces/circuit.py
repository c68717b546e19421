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
(``refresh.draw_certified``) before failing; every refresh lands in the
report.

A refresh reads only its operand's integer shadow (``cipher.shadow``), and
the shadow of a sum or product is integer arithmetic on its operands'
shadows (``homo._shadow_op``, at the level the gate already has).  So the
evaluator records each gate and each refresh as a node, checks levels and
draws refreshes at the gate, and computes polynomials only for the nodes
that a circuit output reads; a wire that feeds only refreshes never gets
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .channel import RandomSource
from .cipher import Ciphertext, Pseudociphertext, post_refresh_level, refresh_due, shadow
from .errors import CircuitError, NoiseBudgetError, ParameterError
from .homo import _output_level, _shadow_op, hom_add, hom_mul
from .refresh import EvalKeys, draw_certified

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
    (``refresh.draw_certified``), which is sound but frequently
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


def _check_inputs(keys: EvalKeys, env: dict[str, Ciphertext]) -> None:
    """Refuse, with ParameterError, a tensor or an input ciphertext that no
    gate could take: the tensor must have the channel's q and n, and each
    input n vector parts and a scalar part over the channel's ring."""
    ch, lam = keys.channel, keys.tensor
    if lam.q != ch.q or len(lam.layers[0][0]) != ch.n:
        raise ParameterError(f"tensor has q = {lam.q} and n = {len(lam.layers[0][0])}, "
                             f"the channel q = {ch.q} and n = {ch.n}")
    for name, ct in env.items():
        if len(ct.c) != ch.n:
            raise ParameterError(
                f"input {name!r} has {len(ct.c)} vector parts, the channel {ch.n}")
        if any(x.ring is not ch.ring for x in (*ct.c, ct.cprime)):
            raise ParameterError(f"input {name!r} is not over the channel's ring")


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
    wire is never silently emitted past the decryption bound.  Every input
    is checked (``_check_inputs``) before any draw.

    Each wire version is one node, in gate order: an input, a gate over two
    earlier nodes, or a drawn refresh of an earlier node.  Levels, refusals
    and draws happen at the gate; a node's shadow is computed only when a
    refresh asks for one.  At the end a backward pass marks the nodes an
    output reads (a refresh reads only its operand's shadow), and a forward
    pass computes their ciphertexts in gate order.  With no refresh, every
    gate that an output depends on runs, in gate order.
    """
    policy = policy or RefreshPolicy()
    ch = keys.channel
    missing = [name for name in circuit.inputs if name not in env]
    if missing:
        raise CircuitError(f"unbound circuit inputs: {missing}")
    _check_inputs(keys, env)
    report = EvalReport()
    post = post_refresh_level(ch)
    # Per node: (op, left, right) for a gate, (None, ciphertext) for an
    # input, ("refresh", drawn refresh); its level; its shadow once
    # computed, shadows being filled in creation order.
    nodes, levels, shadows = [], [], []
    current = {}  # wire name -> its newest node
    for name, ct in env.items():
        current[name] = len(nodes)
        nodes.append((None, ct))
        levels.append(ct.level)

    def shadow_of(i: int):
        for j in range(len(shadows), i + 1):
            op, *args = nodes[j]
            if op is None:
                shadows.append(shadow(ch, args[0]))
            elif op == "refresh":
                shadows.append(args[0].shadow(keys))
            else:
                a, b = (shadows[k] for k in args)
                *v, vprime = _shadow_op(op, keys.tensor, ch.q, (*a.v, a.vprime), (*b.v, b.vprime))
                shadows.append(Pseudociphertext(tuple(v), vprime, levels[j]))
        return shadows[i]

    for gate in circuit.gates:
        for wire in dict.fromkeys((gate.left, gate.right)) if policy.mode == "auto" else ():
            i = current[wire]
            if not refresh_due(ch, post, gate.op, levels[current[gate.left]],
                               levels[current[gate.right]], levels[i]):
                continue
            if rng is None:
                raise CircuitError("auto refresh needs a random source")
            drawn = draw_certified(keys, shadow_of(i), policy.checker, rng)
            if drawn is not None:
                report.refresh_events.append((wire, levels[i], drawn.level))
                current[wire] = len(nodes)
                nodes.append(("refresh", drawn))
                levels.append(drawn.level)
        left, right = current[gate.left], current[gate.right]
        try:
            level = _output_level(ch, gate.op, levels[left], levels[right])
        except NoiseBudgetError as exc:
            raise NoiseBudgetError(
                f"gate {gate.out!r} ({gate.op} {gate.left} {gate.right}) "
                f"exceeds the noise budget at levels {levels[left]}, {levels[right]}"
            ) from exc
        current[gate.out] = len(nodes)
        nodes.append((gate.op, left, right))
        levels.append(level)

    read = [False] * len(nodes)
    for name in circuit.outputs:
        read[current[name]] = True
    for i in range(len(nodes) - 1, -1, -1):
        if read[i] and nodes[i][0] in ("add", "mul"):
            read[nodes[i][1]] = read[nodes[i][2]] = True
    cts = [None] * len(nodes)
    for i, node in enumerate(nodes):
        if not read[i]:
            continue
        op = node[0]
        if op is None:
            cts[i] = node[1]
        elif op == "refresh":
            cts[i] = node[1].ciphertext(keys)
        elif op == "add":
            cts[i] = hom_add(ch, cts[node[1]], cts[node[2]])
        else:
            cts[i] = hom_mul(ch, keys.tensor, cts[node[1]], cts[node[2]])

    report.levels = {name: levels[i] for name, i in current.items()}
    return {name: cts[current[name]] for name in circuit.outputs}, report
