"""Fuzz of the CLI contract: exit 0, 1 or 2 and no traceback on any input.

`generate` is left out, because its cost depends on its flags.
"""

import contextlib
import io
import json
import traceback

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from unidiv.cli import main

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda children: st.lists(children, max_size=6)
    | st.dictionaries(st.text(max_size=4), children, max_size=6),
    max_leaves=24,
)
coordinate = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["0", "1", "-1", "1/2", "-2/3", "1/0", "x", "", True, None, 1.5]),
    json_values,
)
record = st.one_of(
    st.dictionaries(
        st.sampled_from(["x0", "x1", "x2"]),
        st.one_of(st.lists(coordinate, min_size=5, max_size=7), json_values),
        max_size=3,
    ),
    json_values,
)
codebook = st.fixed_dictionaries(
    {"gamma": st.sampled_from(["zeta3", "zeta3^2", 1]), "elements": st.lists(record, max_size=4)}
)
contents = st.one_of(
    json_values.map(json.dumps),
    codebook.map(json.dumps),
    record.map(json.dumps),
    st.text(max_size=40),
    st.binary(max_size=40),
)

FUZZ = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def run_main(argv):
    """Exit code and combined output of main(argv), counting argparse's SystemExit."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = traceback.format_exc()
    return code, out.getvalue()


def assert_contract(code, out):
    assert code in (0, 1, 2), code
    assert "Traceback" not in out


@FUZZ
@given(
    contents,
    # each command with the flags it declares: diversity has no --ascii
    st.sampled_from([(["diversity"], flags) for flags in ([], ["--format", "json"])]
                    + [(["embed", "--element"], flags) for flags in ([], ["--format", "json"], ["--ascii"])]),
)
def test_json_file_commands(tmp_path_factory, data, command_flags):
    command, flags = command_flags
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data)
    assert_contract(*run_main([*command, str(path), *flags]))


@FUZZ
@given(
    st.one_of(
        st.text(max_size=40),
        st.lists(st.sampled_from(["0", "1", "-1", "1/2", "1/0", " 3 ", "x", ""]), max_size=8).map(",".join),
    )
)
def test_embed_zeta9_strings(text):
    assert_contract(*run_main(["embed", f"--zeta9={text}"]))
