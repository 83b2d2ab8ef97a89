"""Property-based tests (hypothesis) for the observability layer."""

import itertools
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.events import EVENT_TYPES, make_event
from repro.obs.profiler import StepProfiler
from repro.obs.writer import JsonlWriter, encode_event, read_events
from repro.sim.engine import Engine

# -- event stream strategies ----------------------------------------------

_VALUE_STRATEGIES = {
    int: st.integers(min_value=-(2**53), max_value=2**53),
    float: st.floats(allow_nan=False, allow_infinity=False, width=64),
    str: st.text(max_size=40),
    bool: st.booleans(),
}


@st.composite
def events(draw):
    """One schema-valid event of an arbitrary type."""
    type_ = draw(st.sampled_from(sorted(EVENT_TYPES)))
    fields = {
        name: draw(_VALUE_STRATEGIES[allowed[0]])
        for name, allowed in EVENT_TYPES[type_].items()
    }
    return make_event(type_, **fields)


class TestEventStreamRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(stream=st.lists(events(), max_size=30))
    def test_written_bytes_are_canonical_and_round_trip(
        self, tmp_path_factory, stream
    ):
        """Any schema-valid stream writes byte-for-byte canonical
        lines and reads back equal, strictly and validated."""
        path = tmp_path_factory.mktemp("obs") / "stream.jsonl"
        with JsonlWriter(path, buffer_lines=3) as writer:
            for event in stream:
                writer.emit(event)
        assert path.read_bytes() == b"".join(
            encode_event(event) for event in stream
        )
        assert read_events(path, strict=True, validate=True) == stream


# -- profiler clock-consistency -------------------------------------------


class _ScriptedClock:
    """Monotonic clock advancing by a scripted cycle of increments."""

    def __init__(self, increments):
        self.now = 0.0
        self._increments = itertools.cycle(increments)

    def __call__(self):
        self.now += next(self._increments)
        return self.now


class _NullComponent:
    def on_run_start(self, ctx):
        pass

    def on_step(self, ctx):
        pass

    def on_run_end(self, ctx):
        pass


class TestProfilerProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        increments=st.lists(
            st.floats(min_value=0.0, max_value=10.0),
            min_size=1,
            max_size=20,
        ),
        n_components=st.integers(min_value=1, max_value=6),
        n_steps=st.integers(min_value=0, max_value=40),
    )
    def test_totals_non_negative_and_bounded_by_elapsed(
        self, increments, n_components, n_steps
    ):
        """For ANY monotonic clock: every component total is
        non-negative, calls are exactly ``n_steps + 2``, and the sum of
        attributed time never exceeds the engine's elapsed time."""
        profiler = StepProfiler(clock=_ScriptedClock(increments))
        components = [_NullComponent() for _ in range(n_components)]
        ctx = SimpleNamespace(
            components=components,
            profiler=profiler,
            n_steps=n_steps,
            dt=0.001,
            warmup_s=0.0,
            state=SimpleNamespace(time_s=0.0),
            result=SimpleNamespace(profile=None),
            step=0,
            time_s=0.0,
            in_window=False,
        )
        Engine().run([ctx])
        profile = ctx.result.profile
        assert profile.n_steps == n_steps
        assert len(profile.components) == n_components
        for entry in profile.components:
            assert entry.calls == n_steps + 2
            assert entry.total_s >= 0.0
        assert profile.engine_elapsed_s >= 0.0
        assert (
            profile.total_component_s <= profile.engine_elapsed_s + 1e-9
        )
