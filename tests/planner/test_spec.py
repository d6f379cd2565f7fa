"""SLO grammar: parsing, validation, and canonical bare statements."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federation.cache import canonical_statement
from repro.federation.sql import SqlError, parse
from repro.planner import SloError, parse_spec, prepare, prepared_clear
from repro.planner import spec as spec_module
from repro.planner.spec import PREPARED_ENTRIES, PROTOCOL_CHOICES, Slo


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


# -- the prepared form ------------------------------------------------------------

IDENTIFIERS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True)


@st.composite
def bodies(draw) -> str:
    """A dialect statement, in some spelling of its keywords and spacing."""
    attribute, table = draw(IDENTIFIERS), draw(IDENTIFIERS)
    if draw(st.booleans()):
        op = draw(st.sampled_from(["TOP", "BOTTOM", "top", "Bottom"]))
        body = f"SELECT {op} {draw(st.integers(1, 40))} {attribute} FROM {table}"
    else:
        op = draw(st.sampled_from(["MAX", "MIN", "SUM", "COUNT", "AVG", "avg"]))
        body = f"select {op}({attribute}) from {table}"
    return draw(st.sampled_from(["", " ", "\t"])) + body + draw(st.sampled_from(["", ";"]))


def _optional(strategy):
    return st.none() | strategy


@st.composite
def slos(draw) -> Slo:
    dp_epsilon = draw(_optional(st.floats(1e-3, 10.0)))
    return Slo(
        epsilon=draw(_optional(st.floats(1e-6, 0.5))),
        max_lop=draw(_optional(st.floats(1e-3, 1.0))),
        deadline=draw(_optional(st.floats(1e-3, 1e3))),
        max_rounds=draw(_optional(st.integers(1, 64))),
        protocol=draw(_optional(st.sampled_from(PROTOCOL_CHOICES))),
        dp_epsilon=dp_epsilon,
        dp_delta=None if dp_epsilon is None else draw(_optional(st.floats(0.0, 0.5))),
    )


def with_slo(body: str, slo: Slo) -> str:
    return body if slo.is_trivial else f"{body} WITH SLO({slo.describe()})"


#: Texts the grammar refuses, each with a reason of its own.
INVALID_TEXTS = st.one_of(
    st.sampled_from(["", "   ", "SELECT NOPE", "SELECT TOP 0 v FROM t", "DROP TABLE t"]),
    st.text(max_size=30).filter(lambda text: "select" not in text.lower()),
    st.builds(
        lambda body, clause: f"{body.rstrip(';')} WITH SLO({clause})",
        bodies(),
        st.sampled_from(
            ["speed=1", "epsilon=2", "deadline=soon", "max_rounds=0", "dp_delta=0.1",
             "deadline=1, deadline=2", "deadline"]
        ),
    ),
)


def outcome_of(compile_, text):
    """What compiling ``text`` settles as: the record, or its typed refusal."""
    try:
        return compile_(text)
    except SqlError as error:
        return type(error), str(error)


class TestPrepared:
    @settings(max_examples=150, deadline=None)
    @given(text=st.one_of(st.builds(with_slo, bodies(), slos()), INVALID_TEXTS))
    def test_prepare_is_parse_spec_memoised(self, text):
        expected = outcome_of(parse_spec, text)
        held = prepare.cache_info().currsize
        got = [outcome_of(prepare, text) for _ in range(3)]
        if isinstance(expected, tuple):  # refused: same error every time, never kept
            assert got == [expected] * 3
            assert prepare.cache_info().currsize == held
            return
        assert all(record is got[0] for record in got)
        spec = got[0].spec
        assert spec == expected
        assert (spec.statement, spec.slo, spec.text) == (
            expected.statement, expected.slo, expected.text,
        )
        assert got[0].canonical == canonical_statement(expected.statement)

    @settings(max_examples=150, deadline=None)
    @given(body=bodies(), slo=slos())
    def test_flags_agree_with_the_slo(self, body, slo):
        prepared = prepare(with_slo(body.rstrip(";"), slo))
        assert prepared.spec.slo == slo
        assert prepared.trivial == slo.is_trivial
        assert prepared.has_dp == slo.has_dp

    def test_a_refusal_is_the_same_on_the_hundredth_call(self):
        prepared_clear()
        for text in ("", "SELECT NOPE", "SELECT MAX(v) FROM t WITH SLO(speed=1)"):
            refusals = {outcome_of(prepare, text) for _ in range(100)}
            assert refusals == {outcome_of(parse_spec, text)}
        assert prepare.cache_info().currsize == 0

    def test_the_memo_is_bounded_and_an_evicted_text_compiles_again(self, monkeypatch):
        compiled = []
        monkeypatch.setattr(
            spec_module,
            "parse_spec",
            lambda text: compiled.append(text) or parse_spec(text),
        )
        prepared_clear()
        texts = [f"SELECT TOP {k} v FROM t" for k in range(1, PREPARED_ENTRIES + 2)]
        records = [prepare(text) for text in texts]
        assert prepare.cache_info().currsize == PREPARED_ENTRIES
        assert prepare(texts[-1]) is records[-1] and len(compiled) == len(texts)
        again = prepare(texts[0])  # the oldest text went when the last came
        assert compiled[-1] == texts[0] and len(compiled) == len(texts) + 1
        assert again == records[0] and again is not records[0]
        prepared_clear()
