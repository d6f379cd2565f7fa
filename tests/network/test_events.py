"""Unit tests for repro.network.events."""

from repro.network.events import EventLog, Observation
from repro.network.message import Message, MessageType, result_message, token_message


def make_log() -> EventLog:
    log = EventLog()
    log.record(token_message("a", "b", 1, [5.0]))
    log.record(token_message("b", "c", 1, [7.0]))
    log.record(token_message("c", "a", 1, [7.0]))
    log.record(token_message("a", "b", 2, [9.0]))
    log.record(result_message("a", "b", 3, [9.0]))
    return log


class TestRecording:
    def test_token_and_result_recorded(self):
        assert len(make_log()) == 5

    def test_control_messages_ignored(self):
        log = EventLog()
        log.record(Message(sender="a", receiver="b", round=0, type=MessageType.CONTROL))
        assert len(log) == 0

    def test_observation_from_message(self):
        obs = Observation.from_message(token_message("a", "b", 2, [1.0, 2.0]))
        assert obs.vector == (1.0, 2.0)
        assert obs.kind == "token"
        assert (obs.sender, obs.receiver, obs.round) == ("a", "b", 2)


class TestViews:
    def test_outputs_exclude_result_broadcast(self):
        outputs = make_log().outputs_of("a")
        assert outputs == {1: (5.0,), 2: (9.0,)}

    def test_inputs_exclude_result_broadcast(self):
        inputs = make_log().inputs_of("b")
        assert inputs == {1: (5.0,), 2: (9.0,)}

    def test_rounds_token_only(self):
        assert make_log().rounds() == [1, 2]

    def test_iteration_order_is_recording_order(self):
        rounds = [o.round for o in make_log()]
        assert rounds == [1, 1, 1, 2, 3]

    def test_token_outputs_in_log_order_without_result_broadcast(self):
        assert list(make_log().token_outputs()) == [
            (1, "a", (5.0,)),
            (1, "b", (7.0,)),
            (1, "c", (7.0,)),
            (2, "a", (9.0,)),
        ]


class TestTokenIndex:
    def test_record_after_a_read_is_seen_by_the_next_read(self):
        log = make_log()
        assert log.inputs_of("a") == {1: (7.0,)}
        log.record(token_message("c", "a", 2, [9.0]))
        assert log.inputs_of("a") == {1: (7.0,), 2: (9.0,)}

    def test_resent_token_overwrites(self):
        log = make_log()
        log.record(token_message("a", "b", 1, [6.0]))
        assert log.outputs_of("a")[1] == (6.0,)
        assert log.inputs_of("b")[1] == (6.0,)

    def test_views_are_copies(self):
        log = make_log()
        log.outputs_of("a").clear()
        log.rounds().clear()
        assert log.outputs_of("a") == {1: (5.0,), 2: (9.0,)}
        assert log.rounds() == [1, 2]

    def test_unknown_node_has_no_traffic(self):
        assert make_log().outputs_of("zed") == {}
        assert make_log().inputs_of("zed") == {}
