"""Deterministic serialization: JSON round trips, CSV layout, SVG charts."""

import copy
import functools
import itertools
import json
from dataclasses import replace
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensyn import (InputDomainError, RngStream, SensynError, build_report,
                    convergence_study, make_example2, make_example4,
                    make_linear, rank)
from sensyn.bounds import batch_statistics, gas_bound_uniform
from sensyn.output import (METHOD_NAMES, bound_check_to_dict,
                           convergence_to_dict, dumps_json, format_float,
                           report_from_dict, report_to_csv, report_to_dict)
from sensyn.svgplot import (bars_chart, convergence_chart, eigvec_chart,
                            spectrum_chart)


@pytest.fixture(scope="module")
def example4_report():
    return build_report(make_example4(), seed=7, n=1_000)


class TestJson:
    def test_float_formatting_roundtrips(self):
        for x in (0.1, 1.0 / 3.0, 1e-300, 12345.6789, 2.0**53 + 1.0):
            assert float(format_float(x)) == x

    def test_non_finite_rejected(self):
        with pytest.raises(InputDomainError):
            dumps_json(float("nan"))

    def test_control_characters_escaped(self):
        label = "a\nb\t\x01"
        assert dumps_json(label) == '"a\\nb\\t\\u0001"'
        assert json.loads(dumps_json({label: [label]})) == {label: [label]}
        assert dumps_json('say "hi" \\ bye') == '"say \\"hi\\" \\\\ bye"'

    def test_deterministic_bytes(self, example4_report):
        a = dumps_json(report_to_dict(example4_report))
        b = dumps_json(report_to_dict(example4_report))
        assert a == b

    def test_rebuilt_report_serializes_identically(self, example4_report):
        again = build_report(make_example4(), seed=7, n=1_000)
        assert (dumps_json(report_to_dict(again))
                == dumps_json(report_to_dict(example4_report)))

    @pytest.mark.parametrize("make_model, methods", [
        (make_example4, ("sobol",)),
        (make_example4, ("dgsm", "as")),
        (make_example2, ("gas",)),
        (make_example4, ("sobol", "dgsm", "as", "gas")),
    ], ids=["sobol", "dgsm-as", "gas-example2", "all"])
    def test_report_roundtrip(self, make_model, methods):
        report = build_report(make_model(), seed=7, n=1_000, methods=methods)
        text = dumps_json(report_to_dict(report))
        back = report_from_dict(json.loads(text))
        assert back.model_label == report.model_label
        assert back.seed == report.seed
        assert back.methods == report.methods
        assert back.sigma2_hat == report.sigma2_hat
        np.testing.assert_array_equal(back.sobol_upper, report.sobol_upper)
        assert list(back.subspaces) == list(report.subspaces)
        for method, summary in report.subspaces.items():
            np.testing.assert_array_equal(back.subspaces[method].eigenvalues,
                                          summary.eigenvalues)
            assert back.subspaces[method].m == summary.m
        assert back.u1_alignment == report.u1_alignment
        np.testing.assert_array_equal(back.reference_direction,
                                      report.reference_direction)
        # serializing the parsed report reproduces the bytes
        assert dumps_json(report_to_dict(back)) == text

    def test_bound_check_payload(self):
        check = gas_bound_uniform(
            batch_statistics(make_example4(), 500, RngStream(1), gas=True), 2)
        payload = bound_check_to_dict(check)
        assert payload["name"] == "gas_bound_uniform(m=2)"
        assert len(payload["lhs"]) == 4
        assert payload["all_passed"] is True
        text = dumps_json(payload)
        assert json.loads(text)["all_passed"] is True


class TestSchemaVersion:
    """Version 2 added ``meta.schema_version`` and ``meta.slope_window``; a
    version-1 report, which has neither, still reads and draws."""

    def test_version_2_leads_meta_and_records_the_window(self, example4_report):
        meta = report_to_dict(example4_report)["meta"]
        assert list(meta)[0] == "schema_version" and meta["schema_version"] == 2
        assert meta["slope_window"] == 0.0  # example4 is differentiable
        sobol = build_report(make_example4(), seed=1, n=300, methods=("sobol",))
        assert report_to_dict(sobol)["meta"]["slope_window"] is None
        windowed = build_report(make_example4(), seed=1, n=300, slope_window=0.35)
        assert report_to_dict(windowed)["meta"]["slope_window"] == 0.35
        back = report_from_dict(json.loads(dumps_json(report_to_dict(windowed))))
        assert back.slope_window == 0.35

    def test_version_1_report_reads_without_a_window(self, example4_report):
        v2 = json.loads(dumps_json(report_to_dict(example4_report)))
        v1 = copy.deepcopy(v2)
        del v1["meta"]["schema_version"], v1["meta"]["slope_window"]
        old, new = report_from_dict(v1), report_from_dict(v2)
        assert (old.slope_window, new.slope_window) == (None, 0.0)
        assert replace(old, slope_window=0.0) == new
        for chart in (bars_chart, spectrum_chart, eigvec_chart):
            assert chart(old) == chart(new)
        v1["meta"]["schema_version"] = 1  # an explicit version 1 reads alike
        assert report_from_dict(v1) == old

    @pytest.mark.parametrize("version, message", [
        (3, "meta.schema_version is 3, not 1 or 2"),
        (2.0, "meta.schema_version is 2.0, not an integer"),
        (None, "meta.schema_version is None, not an integer")])
    def test_other_versions_are_refused(self, example4_report, version, message):
        data = json.loads(dumps_json(report_to_dict(example4_report)))
        data["meta"]["schema_version"] = version
        with pytest.raises(InputDomainError, match=f"^{message}$"):
            report_from_dict(data)

    def test_version_2_needs_the_window(self, example4_report):
        data = json.loads(dumps_json(report_to_dict(example4_report)))
        del data["meta"]["slope_window"]
        with pytest.raises(InputDomainError, match="^meta.slope_window is missing$"):
            report_from_dict(data)

    def test_convergence_gas_table_records_the_window(self):
        model = make_linear([1.0, 4.0])
        tables = {method: convergence_to_dict(convergence_study(
            model, method, (16, 64), 2, rank([1.0, 4.0])))
            for method in ("upper_sobol", "gas_scores")}
        assert tables["gas_scores"]["meta"]["slope_window"] == 0.0
        assert "slope_window" not in tables["upper_sobol"]["meta"]


class TestCsv:
    def test_layout_and_column_count(self, example4_report):
        text = report_to_csv(example4_report)
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        assert header[:2] == ["input_index", "sigma2_share"]
        # all four methods present: 7 raw + 5 normalized score columns
        assert len(header) == 2 + 7 + 5
        assert header == ["input_index", "sigma2_share", "sobol_lower",
                          "sobol_upper", "dgsm", "as_m", "as_full", "gas_m",
                          "gas_full", "dgsm_norm", "as_m_norm", "as_full_norm",
                          "gas_m_norm", "gas_full_norm"]
        assert len(lines) == 1 + example4_report.d
        for line in lines[1:]:
            assert len(line.split(",")) == len(header)

    def test_subset_columns(self):
        report = build_report(make_example4(), seed=1, n=300, methods=("sobol",))
        header = report_to_csv(report).split("\n")[0].split(",")
        assert header == ["input_index", "sigma2_share", "sobol_lower",
                          "sobol_upper"]

    def test_dgsm_as_columns(self):
        report = build_report(make_example4(), seed=1, n=300,
                              methods=("dgsm", "as"))
        header = report_to_csv(report).split("\n")[0].split(",")
        assert header == ["input_index", "sigma2_share", "dgsm", "as_m",
                          "as_full", "dgsm_norm", "as_m_norm", "as_full_norm"]

    def test_sigma2_share_column(self, example4_report):
        text = report_to_csv(example4_report, sigma2_share=[0.1, 0.2, 0.3, 0.4])
        first = text.strip().split("\n")[1].split(",")
        assert float(first[1]) == 0.1  # 17 significant digits round-trip


class TestSvg:
    def test_bars_deterministic(self, example4_report):
        a = bars_chart(example4_report)
        assert a == bars_chart(example4_report)
        assert a.startswith("<svg")
        assert 'width="800" height="500"' in a
        assert "timestamp" not in a

    def test_spectrum_chart(self, example4_report):
        svg = spectrum_chart(example4_report)
        assert "threshold" in svg and svg.count("<polyline") >= 2

    def test_eigvec_chart_of_equal_large_components(self, example4_report):
        # every series equal: the unit span added to a flat axis must not
        # round away beside components of 1e16
        flat = replace(example4_report, subspaces={
            method: replace(summary, first_eigenvector=(1e16,) * 4)
            for method, summary in example4_report.subspaces.items()})
        assert eigvec_chart(flat).startswith("<svg")

    def test_eigvec_chart_with_reference(self):
        report = build_report(make_example2(), seed=2, n=2_000, methods=("gas",))
        svg = eigvec_chart(report)
        assert "reference" in svg

    def test_convergence_chart(self):
        model = make_linear([1.0, 4.0])
        table = convergence_study(model, "upper_sobol", (16, 64, 256), 4,
                                  rank([1.0, 4.0]))
        svg = convergence_chart([table])
        assert svg.count("<polyline") == 2  # one score line per input
        # the seed-averaged scores as a 2-D array or as nested float lists
        as_lists = replace(table, mean_scores=table.mean_scores.tolist())
        assert convergence_chart([as_lists]) == svg
        payload = convergence_to_dict(table)
        assert payload["meta"]["sizes"] == [16, 64, 256]
        assert len(payload["mean_scores"]) == 3
        assert len(payload["cells"][0]["scores"]) == 2

    def test_model_label_is_escaped(self, example4_report):
        label = "a<b & c"
        data = json.loads(dumps_json(report_to_dict(example4_report)))
        data["meta"]["model"] = label
        model = replace(make_linear([1.0, 4.0]), label=label)
        table = convergence_study(model, "upper_sobol", (16, 64), 2, rank([1.0, 4.0]))
        for svg in (bars_chart(report_from_dict(data)), convergence_chart([table])):
            titles = [t.text for t in ElementTree.fromstring(svg)
                      if t.text and t.text.startswith(label)]
            assert len(titles) == 1, svg

    def test_empty_report_rejected(self):
        report = build_report(make_example4(), seed=1, n=300, methods=("sobol",))
        with pytest.raises(InputDomainError):
            spectrum_chart(report)


# every non-empty method set on example4, and example2's GAS report, whose
# reference direction is not null
REPORT_CASES = [(make_example4, methods) for k in range(1, 5)
                for methods in itertools.combinations(METHOD_NAMES, k)]
REPORT_CASES.append((make_example2, ("gas",)))
DELETE = object()


@functools.cache
def valid_report(case: int) -> dict:
    make_model, methods = REPORT_CASES[case]
    report = build_report(make_model(), seed=3, n=200, methods=methods)
    return json.loads(dumps_json(report_to_dict(report)))


@st.composite
def edited_reports(draw):
    """A valid report with up to three fields or sections replaced by a
    value from a fixed pool or deleted, as JSON text holds it."""
    data = json.loads(json.dumps(valid_report(
        draw(st.integers(0, len(REPORT_CASES) - 1)))))
    d = data["meta"]["d"]
    pool = (DELETE, None, True, False, 0, 1, -1, 2, 10**400, "", "x", [], {},
            {"a": 1}, float("nan"), float("inf"), ["gas"], ["as", "gas"],
            list(METHOD_NAMES), [0.5] * (d - 1), [0.5] * (d + 1), [0.0] * d,
            [-1.0] * d, [1e308] * d, ["0.5"] * d)
    paths = [(section,) for section in data]
    paths += [(section, key) for section in data for key in data[section]]
    for path, value in draw(st.lists(st.tuples(st.sampled_from(paths),
                                               st.sampled_from(pool)),
                                     max_size=3)):
        owner = data if len(path) == 1 else data.get(path[0])
        if not isinstance(owner, dict):  # its section was replaced before
            continue
        if value is DELETE:
            owner.pop(path[-1], None)
        else:
            owner[path[-1]] = copy.deepcopy(value)
    return paths, json.loads(json.dumps(data))  # NaN and Infinity literals


class TestReaderProperty:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(edited_reports())
    def test_reader_rejects_what_no_chart_can_draw(self, case):
        # the reader names a field, or every chart draws the report or
        # raises SensynError; nothing else may escape
        paths, data = case
        names = {"the report"} | {".".join(path) for path in paths}
        try:
            report = report_from_dict(data)
        except InputDomainError as exc:
            assert str(exc).startswith(tuple(name + " " for name in names)), exc
            return
        for chart in (bars_chart, spectrum_chart, eigvec_chart):
            try:
                svg = chart(report)
            except SensynError:
                continue
            assert svg.startswith("<svg") and svg.endswith("</svg>\n")
