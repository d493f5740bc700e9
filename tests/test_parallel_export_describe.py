"""Parallel runner and app description utilities."""

import pytest

from repro.apps import build_app, describe_app, describe_plan
from repro.experiments.runner import run_parallel


def _square(x: float) -> float:
    return x * x


class TestRunParallel:
    def test_inline_mode(self):
        out = run_parallel(_square, [{"x": 2.0}, {"x": 3.0}], max_workers=1)
        assert out == [4.0, 9.0]

    def test_empty(self):
        assert run_parallel(_square, []) == []

    def test_process_mode_matches_inline(self):
        kwargs = [{"x": float(i)} for i in range(6)]
        inline = run_parallel(_square, kwargs, max_workers=1)
        parallel = run_parallel(_square, kwargs, max_workers=2)
        assert inline == parallel

    def test_validation(self):
        with pytest.raises(ValueError):
            run_parallel(_square, [{"x": 1.0}], max_workers=0)


class TestDescribe:
    def test_describe_app_mentions_everything(self):
        app = build_app("sockshop")
        text = describe_app(app)
        for svc in app.service_names:
            assert svc in text
        assert "SLO 250 ms" in text
        assert "[frontend]" in text and "[db]" in text

    def test_describe_plan(self):
        app = build_app("sockshop")
        text = describe_plan(app, "checkout")
        assert "stage" in text
        assert "orders" in text

    def test_describe_plan_unknown(self):
        app = build_app("sockshop")
        with pytest.raises(KeyError):
            describe_plan(app, "nope")

    def test_cli_describe(self, capsys):
        from repro.cli import main

        assert main(["describe", "--app", "trainticket",
                     "--plan", "search"]) == 0
        out = capsys.readouterr().out
        assert "seat" in out
        assert "trainticket/search" in out
