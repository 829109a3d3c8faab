"""CLI machine-readable output: ``--json``, ``--trace`` and ``--metrics``.

These tests pin the JSON schemas (top-level key sets and the invariant
parts of the records) so downstream tooling reading the files can rely
on them, and exercise the observability flags end to end through the
argparse entry point.
"""

import json

from repro.cli import main

VERIFY_RECORD_KEYS = {
    "case",
    "ok",
    "implication_ok",
    "s_closure_ok",
    "t_closure_ok",
    "convergence_ok",
    "classification",
    "stabilizing",
    "total_states",
    "span_states",
    "bad_states",
    "key",
}

QUANTITATIVE_KEYS = {
    "case",
    "ok",
    "engine",
    "path",
    "states",
    "target_states",
    "span_states",
    "doomed_states",
    "escape_probability",
    "mean_steps",
    "max_steps",
    "worst_case_steps",
    "weighted_mean_steps",
    "fault_rate",
    "score",
    "iterations",
    "converged",
    "tol",
    "seconds",
}

COMPOSITIONAL_RECORD_KEYS = {
    "case",
    "method",
    "ok",
    "status",
    "refusal",
    "theorem",
    "classification",
    "stabilizing",
    "obligations",
    "enumerated",
    "symmetric",
    "vacuous",
    "trivial",
    "static",
    "structural",
    "edges",
    "max_projection",
    "total_states",
    "fairness",
    "seconds",
    "key",
}


class TestVerifyJson:
    def test_schema_is_stable(self, tmp_path, capsys):
        path = tmp_path / "verdict.json"
        assert main(["verify", "dijkstra-ring", "--size", "3",
                     "--json", str(path)]) == 0
        assert f"verdict written to {path}" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        assert set(payload) == {
            "cache_layer",
            "cached",
            "call_seconds",
            "command",
            "engine",
            "fairness",
            "method",
            "protocol",
            "quantify",
            "record",
            "size",
        }
        assert payload["command"] == "verify"
        assert payload["protocol"] == "dijkstra-ring"
        assert payload["size"] == 3
        assert payload["fairness"] == "weak"
        assert payload["engine"] == "auto"
        assert payload["method"] == "auto"
        assert payload["quantify"] is False
        assert "quantitative" not in payload["record"]
        assert payload["cached"] is False
        assert payload["cache_layer"] == ""  # a miss has no cache layer
        assert payload["call_seconds"] > 0.0
        assert VERIFY_RECORD_KEYS <= set(payload["record"])
        assert payload["record"]["ok"] is True
        assert payload["record"]["stabilizing"] is True

    def test_quantify_record_schema_is_stable(self, tmp_path):
        path = tmp_path / "verdict.json"
        assert main(["verify", "dijkstra-ring", "--size", "3",
                     "--quantify", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["quantify"] is True
        quantitative = payload["record"]["quantitative"]
        assert set(quantitative) == QUANTITATIVE_KEYS
        assert quantitative["ok"] is True
        assert quantitative["converged"] is True
        assert quantitative["doomed_states"] == 0
        assert 0.0 <= quantitative["score"] < 1.0
        assert quantitative["worst_case_steps"] >= quantitative["mean_steps"]

    def test_quantify_rejects_compositional(self, capsys):
        assert main(["verify", "diffusing", "--size", "4", "--quantify",
                     "--method", "compositional"]) == 2
        assert "quantify" in capsys.readouterr().err

    def test_quantify_over_budget_is_a_friendly_refusal(self, capsys):
        # The boolean verify streams under a tiny budget; the value
        # iteration has no streaming variant and must refuse cleanly,
        # not traceback.
        assert main(["verify", "dijkstra-ring", "--size", "5", "--quantify",
                     "--engine", "packed", "--memory-budget", "1K"]) == 2
        assert "memory_budget" in capsys.readouterr().err

    def test_quantify_without_numpy_is_a_friendly_refusal(
        self, capsys, monkeypatch
    ):
        import repro.quantitative as quantitative

        monkeypatch.setattr(quantitative, "HAVE_NUMPY", False)
        assert main(["verify", "dijkstra-ring", "--size", "3",
                     "--quantify"]) == 2
        assert "needs numpy" in capsys.readouterr().err

    def test_compositional_record_schema_is_stable(self, tmp_path):
        path = tmp_path / "verdict.json"
        assert main(["verify", "diffusing", "--size", "4",
                     "--method", "compositional", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["method"] == "compositional"
        record = payload["record"]
        assert set(record) == COMPOSITIONAL_RECORD_KEYS
        assert record["ok"] is True
        assert record["status"] == "certified"
        assert not record["refusal"]
        assert record["method"] == "compositional"
        assert record["obligations"] == (
            record["enumerated"] + record["symmetric"] + record["vacuous"]
            + record["trivial"] + record["static"] + record["structural"]
        )
        assert record["static"] > 0  # the DSL protocols discharge statically

    def test_warm_cache_recorded_in_json(self, tmp_path):
        cache = tmp_path / "cache"
        path = tmp_path / "verdict.json"
        argv = ["verify", "dijkstra-ring", "--size", "3",
                "--cache", str(cache), "--json", str(path)]
        assert main(argv) == 0
        assert json.loads(path.read_text())["cached"] is False
        assert main(argv) == 0
        payload = json.loads(path.read_text())
        assert payload["cached"] is True
        assert payload["cache_layer"] == "disk"

    def test_trace_and_metrics_flags(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["verify", "dijkstra-ring", "--size", "3",
                     "--trace", str(trace), "--metrics"]) == 0
        out = capsys.readouterr().out
        assert f"trace written to {trace}" in out
        assert "cache.miss" in out  # the --metrics report
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        # auto engine resolves to packed, so the kernel compilation and
        # memory-accounting events accompany the cache miss.
        assert [event["kind"] for event in events] == [
            "cache.miss",
            "kernel.build",
            "kernel.mem.sweep",
        ]
        assert all({"seq", "time", "kind"} <= set(event) for event in events)


class TestVerifyAllJson:
    def test_schema_is_stable(self, tmp_path, capsys):
        path = tmp_path / "timings.json"
        assert main(["verify-all", "--case", "coloring-chain",
                     "--workers", "1", "--json", str(path)]) == 0
        assert f"timings written to {path}" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        assert set(payload) == {
            "instances",
            "metrics",
            "wall_clock_seconds",
            "workers",
        }
        assert payload["workers"] == 1
        assert payload["wall_clock_seconds"] > 0.0

        (instance,) = payload["instances"]
        assert VERIFY_RECORD_KEYS <= set(instance)
        assert {"cached", "cache_layer", "worker", "task_seconds",
                "call_seconds"} <= set(instance)
        assert instance["case"] == "coloring-chain (n=4)"

        metrics = payload["metrics"]
        assert set(metrics) == {"meta", "counters", "timers"}
        assert metrics["counters"]["tasks"] == 1
        assert metrics["counters"]["ok"] == 1
        assert metrics["counters"]["cache.miss"] == 1
        assert metrics["meta"]["workers"] == 1
        assert {"task", "verify"} <= set(metrics["timers"])
        assert any(name.startswith("worker.") for name in metrics["timers"])

    def test_metrics_flag_prints_report(self, capsys):
        assert main(["verify-all", "--case", "coloring-chain",
                     "--workers", "1", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "tasks" in out
        assert "worker." in out


class TestSimulateObservability:
    def test_trace_file_delimits_trials(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["simulate", "coloring", "--size", "6", "--trials", "2",
                     "--seed", "3", "--trace", str(trace)]) == 0
        assert f"trace written to {trace}" in capsys.readouterr().out
        kinds = [json.loads(line)["kind"]
                 for line in trace.read_text().splitlines()]
        assert kinds.count("run.start") == 2
        assert kinds.count("run.finish") == 2
        assert "action.fired" in kinds

    def test_metrics_counts_events(self, capsys):
        assert main(["simulate", "coloring", "--size", "6", "--trials", "2",
                     "--seed", "3", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "trials" in out
        assert "stabilized" in out
        assert "action.fired" in out


LINT_CASE_KEYS = {
    "subject",
    "ok",
    "strict_ok",
    "probes",
    "seconds",
    "counts",
    "diagnostics",
}

LINT_DIAGNOSTIC_KEYS = {"code", "severity", "message", "subject", "location", "hint"}


class TestLintJson:
    def test_schema_is_stable(self, tmp_path, capsys):
        path = tmp_path / "lint.json"
        assert main(["lint", "--case", "diffusing-chain", "--case", "mis-cycle",
                     "--json", str(path)]) == 0
        assert f"lint report written to {path}" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        assert set(payload) == {
            "command",
            "strict",
            "semantic",
            "probes",
            "ok",
            "strict_ok",
            "wall_clock_seconds",
            "cases",
        }
        assert payload["command"] == "lint"
        assert payload["strict"] is False
        assert payload["semantic"] is True
        assert payload["probes"] == 32
        assert payload["ok"] is True
        assert payload["strict_ok"] is True
        assert payload["wall_clock_seconds"] > 0.0
        assert len(payload["cases"]) == 2
        for case in payload["cases"]:
            assert set(case) == LINT_CASE_KEYS
            assert set(case["counts"]) == {"error", "warning", "info"}
            for entry in case["diagnostics"]:
                assert set(entry) == LINT_DIAGNOSTIC_KEYS

    def test_full_library_is_clean_under_strict(self, capsys):
        # The shipped protocol library must lint clean at the strict bar
        # with the semantic passes on; this is the CI gate in miniature.
        assert main(["lint", "--strict", "--semantic"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out
        assert "FAIL" not in out

    def test_no_semantic_flag_still_clean(self, capsys):
        assert main(["lint", "--strict", "--no-semantic",
                     "--case", "diffusing-chain"]) == 0
        assert "semantic=off" in capsys.readouterr().out

    def test_unknown_case_is_usage_error(self, capsys):
        assert main(["lint", "--case", "no-such-case"]) == 2
        assert "unknown verification case" in capsys.readouterr().err

    def test_trace_and_metrics_flags(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["lint", "--case", "mis-cycle",
                     "--trace", str(trace), "--metrics"]) == 0
        out = capsys.readouterr().out
        assert f"trace written to {trace}" in out
        assert "lint.runs" in out  # the --metrics report
        kinds = [json.loads(line)["kind"]
                 for line in trace.read_text().splitlines()]
        assert kinds[0] == "lint.start"
        assert kinds[-1] == "lint.finish"


class TestVerdictToJson:
    """Every Verdict type's ``to_json()`` key set is stable."""

    def test_tolerance_report(self):
        from repro.core.predicates import TRUE
        from repro.protocols.library import build_case
        from repro.verification.checker import _check_tolerance

        program, invariant = build_case("coloring-chain", 3)
        report = _check_tolerance(program, invariant, TRUE)
        payload = report.to_json()
        assert set(payload) == {
            "ok", "implication_ok", "s_closure_ok", "t_closure_ok",
            "convergence_ok", "classification", "stabilizing",
            "total_states", "span_states", "bad_states", "fairness",
        }
        assert payload == json.loads(json.dumps(payload))

    def test_compositional_certificate(self):
        from repro.compositional import certify_compositional
        from repro.protocols.library import CASES

        certificate = certify_compositional(
            CASES["diffusing-chain"].build_design(3)
        )
        payload = certificate.to_json()
        assert set(payload) == {
            "design", "theorem", "status", "ok", "classification",
            "stabilizing", "refusal", "total_states", "max_projection",
            "edges", "seconds", "obligations", "static_certificates",
        }
        for obligation in payload["obligations"]:
            assert set(obligation) == {
                "name", "subject", "variables", "space", "checked",
                "discharged_by", "seconds",
            }
        assert payload["static_certificates"]
        for certificate_dict in payload["static_certificates"]:
            assert set(certificate_dict) == {
                "obligation", "subject", "rule", "cases", "detail",
            }
        assert payload == json.loads(json.dumps(payload))

    def test_theorem_certificate(self):
        from repro.protocols.library import CASES

        design = CASES["diffusing-chain"].build_design(3)
        report = design.validate(list(design.program.state_space()))
        payload = report.selected.to_json()
        assert set(payload) == {"theorem", "ok", "conditions"}
        for condition in payload["conditions"]:
            assert set(condition) == {"name", "ok", "detail"}
        assert payload == json.loads(json.dumps(payload))

    def test_lint_report(self):
        from repro.staticcheck import lint_case

        report = lint_case("diffusing-chain")
        assert report.to_json() == report.as_dict()
        assert set(report.to_json()) == LINT_CASE_KEYS

    def test_quantitative_report(self):
        from repro.quantitative import quantify
        from repro.protocols.library import build_case

        program, invariant = build_case("coloring-chain", 3)
        report = quantify(program, invariant)
        payload = report.to_json()
        assert set(payload) == QUANTITATIVE_KEYS
        assert payload == json.loads(json.dumps(payload))

    def test_service_verdict(self):
        import repro
        from repro.verification import VerificationService

        service = VerificationService()
        verdict = repro.verify(
            "coloring-chain", size=3, method="full", service=service
        )
        payload = verdict.to_json()
        assert {"cached", "cache_layer", "call_seconds"} <= set(payload)
        assert VERIFY_RECORD_KEYS <= set(payload)
        assert payload == json.loads(json.dumps(payload))

        compositional = repro.verify(
            "coloring-chain", size=3, method="compositional", service=service
        )
        assert COMPOSITIONAL_RECORD_KEYS <= set(compositional.to_json())
