"""Tests for the automated leakage detector (``repro.leakcheck``)."""

import pytest

from repro.config import SecureProcessorConfig
from repro.leakcheck import (
    LeakReport,
    VictimSpec,
    get_victim,
    run_leakcheck,
    victim_names,
)
from repro.leakcheck.detector import EVENT_FIELDS, _simulate
from repro.synth import compile_program, generate_program, synth_config
from repro.utils.stats import ks_two_sample


class TestKsTwoSample:
    def test_identical_samples(self):
        result = ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.statistic == 0.0
        assert result.pvalue > 0.99

    def test_disjoint_samples(self):
        result = ks_two_sample(list(range(50)), list(range(100, 150)))
        assert result.statistic == 1.0
        assert result.pvalue < 1e-9

    def test_discrete_ties(self):
        result = ks_two_sample([1] * 50 + [2] * 50, [1] * 80 + [2] * 20)
        assert result.statistic == pytest.approx(0.3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])


class TestRegistry:
    def test_known_victims(self):
        assert {"rsa", "mbedtls", "kvstore", "jpeg", "const"} <= set(
            victim_names()
        )

    def test_unknown_victim_rejected(self):
        with pytest.raises(ValueError, match="unknown leakcheck victim"):
            get_victim("nope")


class TestDetector:
    def test_rsa_flags_metadata_events(self):
        report = run_leakcheck("rsa", seed=0)
        assert report.leaky
        flagged = {(f.component, f.kind) for f in report.flagged_findings}
        # The MetaLeak signals proper: counter fetches and tree walks.
        assert any(component == "mee" for component, _ in flagged)
        assert ("mee", "tree_walk") in flagged or (
            "mee",
            "counter_miss",
        ) in flagged or ("mee", "counter_hit") in flagged

    def test_kvstore_flags_write_side(self):
        report = run_leakcheck("kvstore", seed=0)
        assert report.leaky
        flagged_components = {f.component for f in report.flagged_findings}
        assert flagged_components & {"memctrl", "dram"}

    @pytest.mark.parametrize("seed", range(20))
    def test_constant_time_victim_clean(self, seed):
        report = run_leakcheck("const", seed=seed)
        assert not report.leaky, [
            (f.component, f.kind, f.reasons) for f in report.flagged_findings
        ]

    def test_report_json_round_trip(self):
        report = run_leakcheck("rsa", seed=1)
        restored = LeakReport.from_json(report.to_json())
        assert restored.to_dict() == report.to_dict()
        assert restored.leaky == report.leaky
        assert restored.flagged_findings
        assert [f.first_divergence for f in restored.findings] == [
            f.first_divergence for f in report.findings
        ]
        assert all(f.first_divergence for f in restored.flagged_findings)
        assert "alpha" not in report.to_dict()

    def test_user_supplied_victim_spec(self):
        def secrets(seed):
            return seed, seed + 1

        def run(proc, secret):
            # Reads scale with the secret: blatantly leaky.
            for i in range(8 + (int(secret) % 2) * 8):
                proc.read(i * 64)
            proc.drain_writes()

        spec = VictimSpec(
            name="custom", description="test", secrets=secrets, run=run
        )
        report = run_leakcheck(spec, seed=4)
        assert report.victim == "custom"
        assert report.leaky

    def test_determinism(self):
        first = run_leakcheck("rsa", seed=3)
        second = run_leakcheck("rsa", seed=3)
        assert first.to_dict() == second.to_dict()


def _null_pair(name):
    """The registry victim ``name`` with its secret A on both sides."""
    spec = get_victim(name)

    def secrets(seed):
        secret = spec.secrets(seed)[0]
        return secret, secret

    return VictimSpec(name=f"null_{name}", description="one secret twice",
                      secrets=secrets, run=spec.run)


#: One event of the synthetic stream; every field is set.
_BASE_EVENT = {"cycle": 100, "core": 1, "addr": 4096, "set_index": 3,
               "level": 2, "value": 7.0}


def _one_field_spec(field, *, index=2, events=4):
    """Secret 0 emits ``events`` copies of the base event; secret 1 bumps
    ``field`` by one in the event at ``index`` (``index == events``
    appends one extra event instead)."""

    def run(proc, secret):
        for i in range(max(events, index + 1) if secret else events):
            event = dict(_BASE_EVENT, cycle=_BASE_EVENT["cycle"] + i)
            if secret and i == index and index < events:
                event[field] += 1
            proc.tracer.emit("probe", "tick", **event)

    return VictimSpec(name=f"one_{field}", description="synthetic",
                      secrets=lambda seed: (0, 1), run=run)


class TestVerdictGates:
    @pytest.mark.parametrize("seed", range(30))
    def test_kvstore_leaky_at_every_seed(self, seed):
        report = run_leakcheck("kvstore", seed=seed)
        assert report.leaky
        assert {f.component for f in report.flagged_findings} & {
            "memctrl", "dram"
        }

    def test_rsa_with_one_secret_twice_is_clean(self):
        report = run_leakcheck(_null_pair("rsa"), seed=0)
        assert not report.leaky
        assert report.events_a == report.events_b > 0

    @pytest.mark.parametrize("field", EVENT_FIELDS)
    def test_one_field_of_one_event_is_flagged(self, field):
        report = run_leakcheck(_one_field_spec(field), seed=0)
        assert [(f.component, f.kind) for f in report.flagged_findings] == [
            ("probe", "tick")
        ]
        finding = report.flagged_findings[0]
        assert finding.count_a == finding.count_b == 4
        a = dict(_BASE_EVENT, cycle=102)
        b = dict(a, **{field: a[field] + 1})
        assert finding.first_divergence == {
            "index": 2, "a": [a[f] for f in EVENT_FIELDS],
            "b": [b[f] for f in EVENT_FIELDS],
        }
        assert finding.reasons == ["first divergence at event 2"]

    def test_longer_stream_diverges_past_the_shorter_end(self):
        report = run_leakcheck(_one_field_spec("value", index=4), seed=0)
        (finding,) = report.flagged_findings
        assert (finding.count_a, finding.count_b) == (4, 5)
        b = dict(_BASE_EVENT, cycle=104)
        assert finding.first_divergence == {
            "index": 4, "a": None, "b": [b[f] for f in EVENT_FIELDS],
        }
        assert finding.reasons == ["count 4 != 5",
                                   "first divergence at event 4"]


_JITTER = (0.0, 5.0)


class TestReproducibility:
    """The oracle's premise: a secret run twice gives identical streams,
    also under timer jitter (its RNG is seeded from ``config.seed``)."""

    @pytest.mark.parametrize("sigma", _JITTER)
    @pytest.mark.parametrize("name", victim_names())
    def test_registry_victim_streams_repeat(self, name, sigma):
        spec = get_victim(name)
        config = SecureProcessorConfig.sct_default(
            functional_crypto=False, timer_jitter_sigma=sigma
        )
        for secret in spec.secrets(0):
            first = _simulate(spec, secret, config)
            assert first
            assert _simulate(spec, secret, config) == first

    @pytest.mark.parametrize("sigma", _JITTER)
    def test_generated_program_streams_repeat(self, sigma):
        for seed in range(30):
            spec = compile_program(generate_program(seed))
            preset = ("sct", "ht", "sgx")[seed % 3]
            config = synth_config(preset, timer_jitter_sigma=sigma)
            for secret in (0, 1):
                first = _simulate(spec, secret, config)
                assert _simulate(spec, secret, config) == first, (
                    f"program {seed} on {preset}, secret {secret}"
                )


def test_oracle_phases_are_spans_under_the_leakcheck_span():
    from repro import obs

    recorder = obs.enable()
    try:
        run_leakcheck("const", seed=0)
    finally:
        obs.disable()
    spans = recorder.drain()
    by_kind = {span["kind"]: span for span in spans}
    assert sorted(by_kind) == [
        "oracle.diff", "oracle.leakcheck", "oracle.simulate_a",
        "oracle.simulate_b",
    ]
    root = by_kind["oracle.leakcheck"]["span"]
    for kind in ("oracle.simulate_a", "oracle.simulate_b", "oracle.diff"):
        assert by_kind[kind]["parent"] == root
