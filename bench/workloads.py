"""The benchmark's workloads: channels, circuits, job lists, set-up and one job.

Every input is derived from the workload name, the workload seed and a label,
so two runs with the same seed replay the same keys, messages, circuits and
random streams in the same order and differ only in timing.

Two runners execute jobs: ``LibraryRunner`` calls the library directly
(``chain-desk``, ``circuit-large``) and ``CliRunner`` drives ``aces.cli.main``
in process on JSON files (``cli-mid``).  Both time each call into ``aces`` as
one span, scaled to the reference host (see ``hostspeed``); the checks in
``check_job`` run outside the spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import statistics
from dataclasses import dataclass
from pathlib import Path

from aces import cli, serial
from aces.channel import ArithmeticChannel, RandomSource
from aces.cipher import decrypt, encrypt
from aces.circuit import EvalKeys, RefreshPolicy, evaluate, parse_circuit
from aces.errors import AcesError
from aces.keygen import keygen
from aces.refresh import secret_refresh_checker
from hostspeed import HostClock


@dataclass(frozen=True)
class Channel:
    p: int
    q: int
    degree: int
    n: int
    big_n: int

    def build(self) -> ArithmeticChannel:
        u = tuple([-1] + [0] * (self.degree - 1) + [1])
        return ArithmeticChannel(
            p=self.p, q=self.q, omega=1, u=u, n=self.n, big_n=self.big_n, k0=1
        ).require_valid()

    def keygen_args(self) -> list[str]:
        return ["--p", str(self.p), "--q", str(self.q), "--degree", str(self.degree),
                "--n", str(self.n), "--bigN", str(self.big_n), "--k0", "1"]


DESK = Channel(p=2, q=15015, degree=4, n=3, big_n=2)
MID = Channel(p=2, q=math.prod((3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)), degree=16, n=6, big_n=4)
LARGE = Channel(p=3, q=math.prod((5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)),
                degree=64, n=10, big_n=8)


@dataclass(frozen=True)
class Circuit:
    """A circuit as the benchmark writes it, with its own plain evaluation."""

    inputs: tuple[str, ...]
    gates: tuple[tuple[str, str, str, str], ...]  # (out, op, left, right)
    outputs: tuple[str, ...]

    def text(self) -> str:
        lines = ["in " + " ".join(self.inputs)]
        lines += [f"{out} = {op} {left} {right}" for out, op, left, right in self.gates]
        lines.append("out " + " ".join(self.outputs))
        return "\n".join(lines) + "\n"

    def plain(self, messages: dict[str, int], p: int) -> dict[str, int]:
        """Evaluate over residues mod p, independently of ``aces.circuit``."""
        wires = dict(messages)
        for out, op, left, right in self.gates:
            a, b = wires[left], wires[right]
            wires[out] = (a + b) % p if op == "add" else (a * b) % p
        return {name: wires[name] for name in self.outputs}


def _power_chain(length: int) -> Circuit:
    """``t1 = a*a``, then ``t_i = t_(i-1)*a``: the output is a^(length+1).

    At the desk channel the chain climbs 60 -> 608 -> 6088 and auto refresh
    fires on every second gate from t4 on, with 1418 levels of headroom, so
    ``make_refreshable`` has hundreds of attempts.  A squaring chain instead
    refreshes wires at level 7440, 66 levels (16 attempts) below the budget,
    and about 1 job in 1500 then fails at random.
    """
    wires = ["a"] + [f"t{i}" for i in range(1, length + 1)]
    gates = tuple((wires[i], "mul", wires[i - 1], "a") for i in range(1, length + 1))
    return Circuit(("a",), gates, (wires[-1],))


# Multiplicative depth 3 with adds between the products.  Fresh large-channel
# ciphertexts sit at level 24 and the deepest wire reaches about 6e10, far
# below the budget of about 3.4e16, so no gate ever needs a refresh.
MIXED_DEPTH3 = Circuit(
    ("a", "b", "c"),
    (
        ("t1", "mul", "a", "b"),
        ("t2", "add", "t1", "c"),
        ("t3", "mul", "t2", "t2"),
        ("t4", "add", "t3", "a"),
        ("t5", "mul", "t4", "t1"),
        ("t6", "add", "t5", "b"),
    ),
    ("t6", "t3"),
)

# Depth 2 at the mid channel: the deepest wire reaches level 3040, while auto
# refresh would fire only above about 1.9e12.
SMALL_MIXED = Circuit(
    ("a", "b", "c"),
    (
        ("t1", "mul", "a", "b"),
        ("t2", "add", "t1", "c"),
        ("t3", "mul", "t2", "a"),
    ),
    ("t2", "t3"),
)


@dataclass(frozen=True)
class Job:
    index: int
    key: int
    messages: dict[str, int]
    stream: bytes  # seed of the job's RandomSource (library) or command seeds (CLI)


@dataclass(frozen=True)
class Workload:
    name: str
    channel: Channel
    circuit: Circuit
    refresh: str
    cli: bool
    n_keys: int
    setup_repeats: int
    rounds: int
    # Nominal rate that sizes a run as a fixed job count; no clock is read.
    jobs_per_second: float

    def derive(self, seed: int, label: str) -> bytes:
        return hashlib.sha256(f"{self.name}|{seed}|{label}".encode()).digest()[:16]

    def job(self, seed: int, index: int, label: str | None = None) -> Job:
        stream = self.derive(seed, label or f"job/{index}")
        draw = random.Random(stream)
        messages = {name: draw.randrange(self.channel.p) for name in self.circuit.inputs}
        return Job(index, index % self.n_keys, messages, stream)

    def jobs(self, seed: int, seconds: int) -> list[Job]:
        """The job list of one round; ``rounds`` rounds fill about ``seconds``."""
        count = max(1, round(seconds * self.jobs_per_second / self.rounds))
        return [self.job(seed, i) for i in range(count)]

    def warmup(self, seed: int) -> Job:
        return self.job(seed, 0, "warmup")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("chain-desk", DESK, _power_chain(10), "auto", False,
                 n_keys=256, setup_repeats=5, rounds=5, jobs_per_second=65.0),
        Workload("circuit-large", LARGE, MIXED_DEPTH3, "off", False,
                 n_keys=4, setup_repeats=3, rounds=3, jobs_per_second=1.5),
        Workload("cli-mid", MID, SMALL_MIXED, "auto", True,
                 n_keys=8, setup_repeats=9, rounds=3, jobs_per_second=20.0),
    )
}


@dataclass
class Outcome:
    """What one job produced, for the checks and the size metric."""

    values: dict[str, int]
    levels: dict[str, int]
    refresh_events: list[tuple[str, int, int]]
    failure: str | None = None  # set when the program refused an operation
    outputs: dict | None = None  # output ciphertexts (library) or files (CLI)


def check_job(wl: Workload, budget: int, job: Job, out: Outcome) -> list[str]:
    """Output checks for a job that ran to its end."""
    problems = []
    expected = wl.circuit.plain(job.messages, wl.channel.p)
    if out.values != expected:
        problems.append(f"job {job.index}: decrypted {out.values}, expected {expected}")
    for wire, level in out.levels.items():
        if level > budget:
            problems.append(f"job {job.index}: wire {wire} at level {level} > budget {budget}")
    for wire, pre, post in out.refresh_events:
        if not post < pre:
            problems.append(f"job {job.index}: refresh of {wire} went {pre} -> {post}")
    return problems


def dumped_bytes(data: dict) -> int:
    """Bytes ``serial.dump`` writes for ``data`` (the output is ASCII)."""
    return len(json.dumps(data, indent=2)) + 1


class LibraryRunner:
    """Calls the library directly.  Every call into ``aces`` is one timed span."""

    def __init__(self, wl: Workload, seed: int, work: Path):
        self.wl, self.seed = wl, seed
        self.ch = wl.channel.build()
        self.budget = self.ch.max_noise_level()
        self.circuit = parse_circuit(wl.circuit.text())
        self.bundles = None

    def build_keys(self, clock: HostClock, spans: list):
        """The whole key set; returns it so repeated builds can be compared."""
        self.bundles = [
            clock.span(spans, keygen, self.ch, RandomSource(self.wl.derive(self.seed, f"key/{i}")))
            for i in range(self.wl.n_keys)
        ]
        return self.bundles

    def check_keys(self) -> list[str]:
        problems = []
        for i, bundle in enumerate(self.bundles):
            rng = RandomSource(self.wl.derive(self.seed, f"keycheck/{i}"))
            for m in range(self.ch.p):
                got = decrypt(bundle.secret, self.ch, encrypt(bundle.public, self.ch, m, rng))
                if got != m:
                    problems.append(f"key {i}: fresh encryption of {m} decrypts to {got}")
        return problems

    def pk_bytes(self) -> float:
        sizes = [dumped_bytes(serial.public_to_dict(b)) for b in self.bundles]
        return sum(sizes) / len(sizes)

    def run(self, job: Job, clock: HostClock, spans: list) -> Outcome:
        bundle, ch = self.bundles[job.key], self.ch
        rng = RandomSource(job.stream)
        policy = RefreshPolicy(mode="off")
        if self.wl.refresh == "auto":
            policy = RefreshPolicy(mode="auto", checker=secret_refresh_checker(bundle.secret, ch))
        try:
            env = {name: clock.span(spans, encrypt, bundle.public, ch, m, rng)
                   for name, m in job.messages.items()}
            outputs, report = clock.span(spans, evaluate, self.circuit, env,
                                         EvalKeys.from_bundle(bundle), policy, rng)
            values = {name: clock.span(spans, decrypt, bundle.secret, ch, ct)
                      for name, ct in outputs.items()}
        except AcesError as exc:
            return Outcome({}, {}, [], failure=repr(exc))
        levels = {name: ct.level for name, ct in outputs.items()}
        return Outcome(values, levels, list(report.refresh_events), outputs=outputs)

    def output_bytes(self, out: Outcome) -> list[int]:
        return [dumped_bytes(serial.ciphertext_to_dict(ct)) for ct in out.outputs.values()]


class CliRunner:
    """Drives ``aces.cli.main`` in process on files; every command is one timed span."""

    def __init__(self, wl: Workload, seed: int, work: Path):
        self.wl, self.seed, self.work = wl, seed, work
        self.budget = wl.channel.build().max_noise_level()
        self.keydirs = [work / "keys" / f"k{i}" for i in range(wl.n_keys)]
        self.circuit_file = work / "circuit.txt"
        self.circuit_file.write_text(wl.circuit.text(), encoding="utf-8")
        self.jobdir = work / "job"
        self.jobdir.mkdir()

    @staticmethod
    def _aces(argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue() + err.getvalue()

    def build_keys(self, clock: HostClock, spans: list):
        """Runs ``aces keygen`` per key; returns the public files' bytes."""
        for i, keydir in enumerate(self.keydirs):
            seed = self.wl.derive(self.seed, f"key/{i}").hex()
            argv = ["keygen", *self.wl.channel.keygen_args(), "--seed", seed, "--out", str(keydir)]
            code, text = clock.span(spans, self._aces, argv)
            if code != 0:
                raise RuntimeError(f"aces keygen exited {code}: {text.strip()}")
        return [(d / "public.json").read_bytes() for d in self.keydirs]

    def _files(self, key: int) -> tuple[str, str, str]:
        d = self.keydirs[key]
        return str(d / "public.json"), str(d / "channel.json"), str(d / "secret.json")

    def check_keys(self) -> list[str]:
        problems = []
        ct = str(self.work / "keycheck.json")
        for i in range(len(self.keydirs)):
            pub, chf, sec = self._files(i)
            for m in range(self.wl.channel.p):
                seed = self.wl.derive(self.seed, f"keycheck/{i}/{m}").hex()
                code, text = self._aces(["encrypt", "--pub", pub, "--channel", chf,
                                         "--message", str(m), "--seed", seed, "--out", ct])
                if code == 0:
                    code, text = self._aces(["decrypt", "--secret", sec, "--channel", chf, "--ct", ct])
                if code != 0 or text.strip() != str(m):
                    problems.append(f"key {i}: fresh encryption of {m} gave exit {code}, {text.strip()!r}")
        return problems

    def pk_bytes(self) -> float:
        sizes = [(d / "public.json").stat().st_size for d in self.keydirs]
        return sum(sizes) / len(sizes)

    def run(self, job: Job, clock: HostClock, spans: list) -> Outcome:
        pub, chf, sec = self._files(job.key)
        outdir = self.jobdir / "out"
        commands = []
        inputs = []
        for name, m in job.messages.items():
            path = str(self.jobdir / f"{name}.json")
            seed = hashlib.sha256(job.stream + name.encode()).hexdigest()[:32]
            commands.append(["encrypt", "--pub", pub, "--channel", chf, "--message", str(m),
                             "--seed", seed, "--out", path])
            inputs += ["--input", f"{name}={path}"]
        commands.append(["eval", "--pub", pub, "--channel", chf, "--circuit", str(self.circuit_file),
                         *inputs, "--refresh", self.wl.refresh, "--out", str(outdir),
                         "--seed", job.stream.hex()])
        outputs = {name: outdir / f"{name}.json" for name in self.wl.circuit.outputs}
        commands += [["decrypt", "--secret", sec, "--channel", chf, "--ct", str(path)]
                     for path in outputs.values()]
        printed = []
        for argv in commands:
            code, text = clock.span(spans, self._aces, argv)
            if code != 0:
                return Outcome({}, {}, [], failure=f"aces {argv[0]} exited {code}: {text.strip()}")
            printed.append(text.strip())
        values = {name: int(v) if v.isdigit() else v
                  for name, v in zip(outputs, printed[-len(outputs):])}
        levels = {name: json.loads(path.read_text())["level"] for name, path in outputs.items()}
        report = json.loads((outdir / "report.json").read_text())
        events = [(e["wire"], e["pre"], e["post"]) for e in report["refresh_events"]]
        return Outcome(values, levels, events, outputs=outputs)

    def output_bytes(self, out: Outcome) -> list[int]:
        return [path.stat().st_size for path in out.outputs.values()]


class Loop:
    """Runs rounds of a job list, checks every job, and keeps its time.

    A job's time in one round is the sum of its spans, each scaled to the
    reference host; its time is the median of its rounds.  Rounds space a
    job's repeats many seconds apart, so a change of host speed inside one
    span, which the calibration around it cannot see, moves one of the
    values and not the median.  A job that fails or is wrong in any round
    counts as failed there and gets no time.
    """

    def __init__(self, wl: Workload, runner, clock: HostClock, measure_sizes: bool = True):
        self.wl, self.runner, self.clock = wl, runner, clock
        self.measure_sizes = measure_sizes
        self.rounds: dict[int, list[list]] = {}  # job index -> spans of each verified round
        self.bad: set[int] = set()
        self.sizes: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.failures: list[str] = []

    def run(self, jobs, rounds: int = 1) -> "Loop":
        self.clock.calibrate()
        for _ in range(rounds):
            for job in jobs:
                self._one(job)
        return self

    def _one(self, job: Job) -> None:
        spans = []
        out = self.runner.run(job, self.clock, spans)
        self.attempted += 1
        if out.failure is not None:
            self.failures.append(f"job {job.index}: {out.failure}")
        else:
            problems = check_job(self.wl, self.runner.budget, job, out)
            if not problems:
                if self.measure_sizes and job.index not in self.rounds:
                    self.sizes += self.runner.output_bytes(out)
                self.rounds.setdefault(job.index, []).append(spans)
                return
            self.problems += problems
        self.failed += 1
        self.bad.add(job.index)

    def seconds(self) -> list[float]:
        """Reference-host seconds of each job that passed every round."""
        return [
            statistics.median(self.clock.seconds(spans) for spans in rounds)
            for index, rounds in sorted(self.rounds.items())
            if index not in self.bad
        ]

    @property
    def jobs_per_s(self) -> float:
        """Verified jobs per second of their reference-host time."""
        seconds = self.seconds()
        return len(seconds) / sum(seconds) if seconds else 0.0


def make_runner(wl: Workload, seed: int, work: Path):
    return (CliRunner if wl.cli else LibraryRunner)(wl, seed, work)
