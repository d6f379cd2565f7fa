"""SLO grammar: parsing, validation, and canonical bare statements."""

import pytest

from repro.federation.sql import SqlError, parse
from repro.planner import SloError, parse_spec


class TestBareStatements:
    def test_bare_statement_has_trivial_slo(self):
        spec = parse_spec("SELECT TOP 3 value FROM data")
        assert spec.slo.is_trivial
        assert spec.statement == parse("SELECT TOP 3 value FROM data")

    def test_bare_text_is_the_statement_canonical_form(self):
        spec = parse_spec("SELECT TOP 3 value FROM data WITH SLO(deadline=1.0)")
        assert spec.statement.text == parse("SELECT TOP 3 value FROM data").text

    def test_every_dialect_operation_accepts_an_slo_suffix(self):
        for text in (
            "SELECT TOP 5 value FROM data",
            "SELECT BOTTOM 2 value FROM data",
            "SELECT MAX(value) FROM data",
            "SELECT MIN(value) FROM data",
            "SELECT SUM(value) FROM data",
            "SELECT COUNT(value) FROM data",
            "SELECT AVG(value) FROM data",
        ):
            spec = parse_spec(f"{text} WITH SLO(deadline=2.0)")
            assert spec.slo.deadline == 2.0
            assert spec.statement.operation == parse(text).operation


class TestClauses:
    def test_all_clauses_parse(self):
        spec = parse_spec(
            "SELECT TOP 3 value FROM data WITH SLO("
            "epsilon=0.01, max_lop=0.2, deadline=1.5, max_rounds=6, "
            "protocol=probabilistic)"
        )
        slo = spec.slo
        assert slo.epsilon == 0.01
        assert slo.max_lop == 0.2
        assert slo.deadline == 1.5
        assert slo.max_rounds == 6
        assert slo.protocol == "probabilistic"
        assert not slo.is_trivial

    def test_precision_is_epsilon_sugar(self):
        spec = parse_spec(
            "SELECT TOP 3 value FROM data WITH SLO(precision=0.99)"
        )
        assert spec.slo.epsilon == pytest.approx(0.01)

    def test_clause_parsing_is_case_insensitive(self):
        spec = parse_spec(
            "select top 3 value from data with slo(DEADLINE=1.0)"
        )
        assert spec.slo.deadline == 1.0

    @pytest.mark.parametrize(
        "clauses",
        [
            "nonsense=1",
            "deadline=1.0, deadline=2.0",  # duplicate
            "epsilon=0.01, precision=0.99",  # conflicting spellings
            "epsilon=0",  # out of range
            "epsilon=1.5",
            "max_lop=0",
            "deadline=-1",
            "max_rounds=0",
            "protocol=quantum",
            "backend=gpu",
            "backend=session",  # the retired key is unknown, whatever its value
            "backend=kernel",
            "backend=auto",
        ],
    )
    def test_invalid_clauses_raise_slo_error(self, clauses):
        with pytest.raises(SloError):
            parse_spec(f"SELECT TOP 3 value FROM data WITH SLO({clauses})")

    def test_slo_error_is_a_sql_error(self):
        # Settled batch paths catch SqlError; SLO mistakes must flow the
        # same refusal channel rather than crashing the batch.
        assert issubclass(SloError, SqlError)

    def test_malformed_base_statement_still_raises(self):
        with pytest.raises(SqlError):
            parse_spec("SELECT EVERYTHING FROM data WITH SLO(deadline=1.0)")

    def test_describe_is_deterministic(self):
        a = parse_spec(
            "SELECT TOP 3 value FROM data WITH SLO(deadline=1.0, max_lop=0.3)"
        ).slo
        b = parse_spec(
            "SELECT TOP 3 value FROM data WITH SLO(max_lop=0.3, deadline=1.0)"
        ).slo
        assert a.describe() == b.describe()
