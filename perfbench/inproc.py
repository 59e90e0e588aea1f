"""The in-process workloads: ``oracle``, ``attack_rsa`` and ``covert_c``.

Each workload turns the benchmark seed into a list of *items* during
set-up (generated programs, keys, symbols) and then runs items one at a
time through the layer's public entry point.  An item's result is
checked against what is known about it before it counts as done.

Only the entry-point call is timed: generation happens in set-up, and
the covert channel's machine is built before its transmissions.  The
oracle and the RSA attack build their machines inside the call, as every
caller of those functions does.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.analysis import rsa_attack
from repro.attacks.covert import CovertChannelC
from repro.config import MIB, PAGE_SIZE, preset_config
from repro.leakcheck import detector
from repro.leakcheck.victims import VictimSpec, get_victim
from repro.os.page_alloc import PageAllocator
from repro.proc.processor import SecureProcessor
from repro.synth import gen, runner
from repro.utils.rng import derive_rng
from repro.victims.rsa import generate_test_key


@dataclass
class Item:
    """One unit of work: one or more entry-point ``calls``.

    ``check(results)`` lists every way the calls' results are wrong
    (empty when correct); ``digest(results)`` fingerprints their
    simulated outcome.  The runner times each call on its own.
    """

    label: str
    calls: tuple[Callable[[], Any], ...]
    check: Callable[[tuple[Any, ...]], list[str]]
    digest: Callable[[tuple[Any, ...]], str]
    secret_bits: int = 0

    def run(self) -> tuple[Any, ...]:
        return tuple(call() for call in self.calls)


@dataclass
class Inputs:
    """A workload's generated inputs.

    ``items`` are cycled for the timed run; the first ``pass_size`` of
    them are the pass the traced run repeats, so its counters repeat.
    ``fresh`` rebuilds any stateful machine so that a pass starts from
    the same state every time.
    """

    items: list[Item]
    pass_size: int
    fresh: Callable[[], None] = field(default=lambda: None)


def _digest(*parts: object) -> str:
    return hashlib.blake2b(repr(parts).encode(), digest_size=8).hexdigest()


# ----------------------------------------------------------------------
# oracle: the traced paired-secret oracle over generated programs
# ----------------------------------------------------------------------

ORACLE_PRESETS = ("sct", "ht", "sgx")
#: Registry victims run at seed 0, the seed their known verdicts (and
#: the repository's own leakcheck tests) use.
VICTIM_VERDICTS = {
    "rsa": True, "mbedtls": True, "jpeg": True, "kvstore": True,
    "const": False,
}
#: One victim item follows every this many generated programs.
VICTIM_EVERY = 9


def _null_pair() -> VictimSpec:
    """The rsa victim with the same secret on both sides: must be clean."""
    rsa = get_victim("rsa")

    def secrets(seed: int) -> tuple[object, object]:
        secret = rsa.secrets(seed)[0]
        return secret, secret

    return VictimSpec(name="null_rsa", description="rsa, one secret twice",
                      secrets=secrets, run=rsa.run)


def _program_item(seed: int, preset: str) -> Item:
    program = gen.generate_program(seed)

    def run() -> Any:
        return runner.evaluate_program(
            program=program, preset=preset, gen_seed=seed
        )

    def check(results: tuple[Any, ...]) -> list[str]:
        if results[0].events <= 0:
            return [f"program {seed}/{preset}: no trace events"]
        return []

    return Item(
        label=f"program {seed}/{preset}", calls=(run,), check=check,
        digest=lambda rs: _digest(rs[0].leaky, rs[0].channels, rs[0].events),
    )


def _victim_item(spec: VictimSpec, expect_leaky: bool) -> Item:
    def run() -> Any:
        return detector.run_leakcheck(spec, seed=0)

    def check(results: tuple[Any, ...]) -> list[str]:
        report = results[0]
        errors = []
        if report.leaky != expect_leaky:
            errors.append(
                f"victim {spec.name}: verdict "
                f"{'leaky' if report.leaky else 'clean'}, expected "
                f"{'leaky' if expect_leaky else 'clean'}"
            )
        if report.dropped_a or report.dropped_b:
            errors.append(
                f"victim {spec.name}: dropped events "
                f"{report.dropped_a}/{report.dropped_b}"
            )
        return errors

    return Item(
        label=f"victim {spec.name}", calls=(run,), check=check,
        digest=lambda rs: _digest(
            rs[0].leaky, rs[0].events_a, rs[0].events_b,
            [(f.component, f.kind) for f in rs[0].flagged_findings],
        ),
    )


def oracle_inputs(seed: int, programs: int) -> Inputs:
    rng = derive_rng(seed, "perfbench-oracle")
    victims = [
        _victim_item(get_victim(name), leaky)
        for name, leaky in VICTIM_VERDICTS.items()
    ] + [_victim_item(_null_pair(), False)]
    items: list[Item] = []
    for index in range(programs):
        program_seed = rng.getrandbits(31)
        items.append(
            _program_item(program_seed, ORACLE_PRESETS[index % 3])
        )
        if index % VICTIM_EVERY == VICTIM_EVERY - 1:
            items.append(victims[(index // VICTIM_EVERY) % len(victims)])
    # The traced pass covers every victim and all three presets.
    pass_size = min(len(items), len(victims) * (VICTIM_EVERY + 1))
    return Inputs(items=items, pass_size=pass_size)


# ----------------------------------------------------------------------
# attack_rsa: Fig. 16 MetaLeak-T exponent recovery on sgx and sct
# ----------------------------------------------------------------------


def _attack_item(key_seed: int, bits: int) -> Item:
    _, exponent, _ = generate_test_key(bits, seed=key_seed)
    truth = [int(b) for b in bin(exponent)[2:]]

    def attack(machine: str) -> Callable[[], Any]:
        return lambda: rsa_attack.run_rsa_attack(
            machine, exponent_bits=bits, seed=key_seed
        )

    def check(results: tuple[Any, ...]) -> list[str]:
        errors = []
        for result in results:
            if result.recovered_bits != truth:
                wrong = sum(
                    a != b for a, b in zip(result.recovered_bits, truth)
                ) + abs(len(result.recovered_bits) - len(truth))
                errors.append(
                    f"key {key_seed} on {result.machine}: {wrong} of "
                    f"{len(truth)} exponent bits wrong"
                )
        return errors

    return Item(
        label=f"key {key_seed}", calls=(attack("sgx"), attack("sct")),
        check=check,
        digest=lambda rs: _digest(
            [(r.recovered_bits, r.steps, r.latency_trace) for r in rs]
        ),
        secret_bits=2 * bits,
    )


def attack_inputs(seed: int, keys: int, bits: int) -> Inputs:
    rng = derive_rng(seed, "perfbench-rsa-keys")
    items = [_attack_item(rng.getrandbits(31), bits) for _ in range(keys)]
    return Inputs(items=items, pass_size=min(2, len(items)))


# ----------------------------------------------------------------------
# covert_c: Fig. 14 MetaLeak-C covert channel on sct
# ----------------------------------------------------------------------


def _covert_channel() -> CovertChannelC:
    config = preset_config(
        "sct", functional_crypto=False, timer_jitter_sigma=0.0,
        protected_size=256 * MIB,
    )
    proc = SecureProcessor(config)
    allocator = PageAllocator(
        proc.layout.data_size // PAGE_SIZE, cores=proc.config.cores
    )
    return CovertChannelC(proc, allocator)


def covert_inputs(seed: int, transmissions: int, pairs: int) -> Inputs:
    """Each transmission sends ``pairs`` random symbols, each followed by
    its complement: the spy's scan cost falls as the symbol rises, so a
    symbol and its complement cost the same whatever the symbol is."""
    rng = derive_rng(seed, "perfbench-covert-symbols")
    channel: list[CovertChannelC] = [_covert_channel()]
    max_symbol = channel[0].max_symbol

    def fresh() -> None:
        channel[0] = _covert_channel()

    def make(symbols: list[int]) -> Item:
        def run() -> Any:
            return channel[0].transmit(symbols)

        def check(results: tuple[Any, ...]) -> list[str]:
            if results[0].received != symbols:
                return [f"sent {symbols}, received {results[0].received}"]
            return []

        return Item(
            label=f"symbols {symbols}", calls=(run,), check=check,
            digest=lambda rs: _digest(rs[0].received, rs[0].cycles),
            secret_bits=len(symbols) * channel[0].symbol_bits,
        )

    items = []
    for _ in range(transmissions):
        symbols = []
        for _ in range(pairs):
            symbol = rng.randint(0, max_symbol)
            symbols += [symbol, max_symbol - symbol]
        items.append(make(symbols))
    return Inputs(items=items, pass_size=min(4, len(items)), fresh=fresh)
