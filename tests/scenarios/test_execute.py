"""The execute() facade: backend coverage, spec verdicts, CLI entry points."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import ALGORITHMS, Scenario, execute


class TestBackendCoverage:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS.names()))
    def test_every_registered_algorithm_executes(self, algorithm):
        record = execute(Scenario(algorithm=algorithm, n=5, f=1,
                                  adversary="coordinator-killer", seed=3))
        assert record.spec_ok, record.violations
        assert record.backend == ALGORITHMS.get(algorithm).backend
        assert len(record.decisions) >= 1
        assert record.f_actual == 1

    def test_crw_early_stopping_shape(self):
        record = execute(Scenario(algorithm="crw", n=8, f=3,
                                  adversary="coordinator-killer"))
        assert record.last_decision_round == record.f_actual + 1

    def test_eager_crw_violates_under_partial_data_delivery(self):
        # The ablation exists to fail: a coordinator crash that delivers
        # DATA to only a subset splits eager deciders from the rest.
        record = execute(Scenario(algorithm="eager-crw", n=4, f=1,
                                  adversary="coordinator-killer-subset", seed=0))
        assert not record.spec_ok
        assert any("agreement" in v for v in record.violations)

    def test_truncated_crw_takes_k_param(self):
        record = execute(Scenario(algorithm="truncated-crw", n=5, f=0,
                                  adversary="none", params={"k": 2}))
        assert record.last_decision_round <= 2

    def test_interactive_consistency_uses_vector_spec(self):
        record = execute(Scenario(algorithm="interactive-consistency", n=4, f=1,
                                  adversary="random", seed=5))
        # Vector decisions are not proposals; the dedicated IC checker
        # must be in effect (the plain checker would flag validity).
        assert record.spec_ok, record.violations

    def test_async_records_sim_time(self):
        record = execute(Scenario(algorithm="mr99", n=5, f=1,
                                  adversary="coordinator-killer",
                                  timing={"delay": "uniform", "lo": 0.5, "hi": 1.5}))
        assert record.spec_ok and record.sim_time is not None

    def test_ffd_timing_params(self):
        record = execute(Scenario(algorithm="ffd", n=6, f=2,
                                  adversary="coordinator-killer",
                                  timing={"D": 50.0, "d": 1.0}))
        assert record.spec_ok
        assert record.raw.max_decision_time <= 50.0 + 3 * 1.0
        assert record.messages_sent > 0

    def test_deterministic_per_scenario(self):
        s = Scenario(algorithm="chandra-toueg", n=5, f=1, adversary="random", seed=9)
        a, b = execute(s), execute(s)
        assert a.to_dict() == b.to_dict()


class TestRejections:
    def test_unknown_algorithm(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            execute(Scenario(algorithm="paxos", n=4))

    def test_unknown_adversary(self):
        with pytest.raises(ConfigurationError, match="unknown adversary"):
            execute(Scenario(algorithm="crw", n=4, adversary="byzantine"))

    def test_unknown_workload(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            execute(Scenario(algorithm="crw", n=4, workload="zipfian"))

    def test_model_mismatch(self):
        with pytest.raises(ConfigurationError, match="backend"):
            execute(Scenario(algorithm="crw", n=4, model="async"))

    def test_model_match_accepted(self):
        assert execute(Scenario(algorithm="crw", n=4, model="extended")).spec_ok

    def test_f_beyond_default_t(self):
        # mr99 default t = (n-1)//2 = 2; f=3 exceeds it.
        with pytest.raises(ConfigurationError, match="exceeds"):
            execute(Scenario(algorithm="mr99", n=5, f=3))

    def test_sync_adversary_without_timed_plan(self):
        with pytest.raises(ConfigurationError, match="timed crash plan"):
            execute(Scenario(algorithm="mr99", n=5, f=1, adversary="commit-splitter"))

    def test_unknown_delay_model(self):
        with pytest.raises(ConfigurationError, match="delay model"):
            execute(Scenario(algorithm="mr99", n=5, timing={"delay": "teleport"}))

    def test_typoed_timing_key_rejected(self):
        # 'sigm' would silently fall back to the default sigma otherwise.
        with pytest.raises(ConfigurationError, match="timing key"):
            execute(Scenario(algorithm="mr99", n=5,
                             timing={"delay": "lognormal", "sigm": 0.75}))
        with pytest.raises(ConfigurationError, match="timing key"):
            execute(Scenario(algorithm="ffd", n=6, timing={"DD": 50.0}))

    def test_detector_churn_params_forwarded(self):
        record = execute(Scenario(
            algorithm="mr99", n=5, f=1, adversary="coordinator-killer",
            timing={"stabilization_time": 5.0, "churn_rate": 0.5,
                    "false_suspicion_duration": 2.0},
        ))
        assert record.spec_ok, record.violations


PARITY_CELLS = [
    (algorithm, adversary)
    for algorithm, adversaries in (
        ("crw", ["none", "coordinator-killer", "commit-splitter", "max-traffic",
                 "staggered", "random"]),
        ("floodset", ["none", "staggered", "random"]),
        ("early-stopping", ["none", "staggered", "random"]),
    )
    for adversary in adversaries
]


class TestRecordMatchesRaw:
    """A synchronous record's fields agree with the engine's RunResult.

    execute() reads decisions, decision rounds and crashes straight off
    the engine's ledgers; the RunResult in ``record.raw`` derives them
    per outcome.  The two must never drift apart.
    """

    @pytest.mark.parametrize("algorithm,adversary", PARITY_CELLS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_decisions_and_rounds_identical(self, algorithm, adversary, seed):
        record = execute(Scenario(algorithm=algorithm, n=6, t=5, f=2,
                                  adversary=adversary, seed=seed))
        raw = record.raw
        assert record.decisions == raw.decisions
        assert record.decision_rounds == raw.decision_rounds
        assert record.crashed == raw.crashed_pids
        assert record.f_actual == raw.f
        assert record.last_decision_round == raw.last_decision_round
        assert record.messages_sent == raw.stats.messages_sent
        assert record.bits_sent == raw.stats.bits_sent

    def test_value_bits_parity(self):
        record = execute(Scenario(algorithm="crw", n=4, t=3, f=0, adversary="none",
                                  workload="sized", workload_params={"bits": 128}))
        assert record.bits_sent == record.raw.stats.bits_sent == 3 * 128 + 3


class TestCli:
    """The CLI entry points built on execute()."""

    def test_cli_run_defaults_t_per_algorithm(self, capsys):
        # Legacy `run` without --t must use the algorithm's own t rule:
        # n-1 would violate mr99's majority requirement and traceback.
        from repro.harness.cli import main

        assert main(["run", "-a", "mr99", "--n", "5", "--f", "1",
                     "--adversary", "coordinator-killer"]) == 0
        assert "spec:  OK" in capsys.readouterr().out

    def test_cli_scenario_run_trace_prints(self, capsys):
        from repro.harness.cli import main

        assert main(["scenario", "run", "-a", "crw", "--n", "4", "--trace"]) == 0
        assert "decide" in capsys.readouterr().out

    def test_cli_scenario_file_rejects_conflicting_flags(self, tmp_path, capsys):
        # Flags alongside --file would lose silently (e.g. sweeping --seed
        # over a base file runs the file's seed every time).
        from repro.harness.cli import main

        path = tmp_path / "s.json"
        path.write_text(Scenario(algorithm="crw", n=4).to_json())
        assert main(["scenario", "run", "--file", str(path), "--seed", "99"]) == 2
        assert "--seed" in capsys.readouterr().err
        # Even a flag passed at its documented default must be caught —
        # the file's value (not the flag's) would win otherwise.
        assert main(["scenario", "run", "--file", str(path), "--seed", "0"]) == 2

    def test_cli_config_errors_are_clean(self, capsys):
        # User-input mistakes exit 2 with the curated one-line message,
        # not a traceback.
        from repro.harness.cli import main

        assert main(["scenario", "run", "-a", "paxos", "--n", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown algorithm 'paxos'")

    def test_cli_run_uses_registered_spec(self, capsys):
        # `run` accepts every registered algorithm; the CLI must
        # judge each with its registered checker (IC decides vectors,
        # which the plain validity clause would wrongly flag).
        from repro.harness.cli import main

        assert main(["run", "-a", "interactive-consistency", "--n", "4",
                     "--t", "1", "--adversary", "none"]) == 0
        assert "spec:  OK" in capsys.readouterr().out
