"""Page generator and render-pipeline tests."""

import pickle

import pytest

from repro.browser import pages as pages_module
from repro.browser.browser import browser_tasks
from repro.browser.pages import (
    HIGH_INTENSITY_PAGES,
    LOW_INTENSITY_PAGES,
    alexa_pages,
    build_page,
    page_by_name,
    page_names,
)
from repro.browser.render import (
    RenderCostModel,
    build_render_workload,
    render_workload_for,
)


class TestPageGeneration:
    def test_eighteen_pages(self):
        assert len(alexa_pages()) == 18
        assert len(page_names()) == 18

    def test_class_lists_partition_the_pages(self):
        assert set(LOW_INTENSITY_PAGES) | set(HIGH_INTENSITY_PAGES) == set(
            page_names()
        )
        assert not set(LOW_INTENSITY_PAGES) & set(HIGH_INTENSITY_PAGES)

    def test_generation_is_deterministic(self):
        page = page_by_name("reddit")
        rebuilt = build_page(page.profile)
        assert rebuilt.html == page.html
        assert rebuilt.features == page.features

    def test_unknown_page_rejected(self):
        with pytest.raises(KeyError):
            page_by_name("geocities")

    def test_census_features_are_plausible(self):
        for page in alexa_pages():
            assert page.features.dom_nodes > 100
            assert page.features.a_tags > 0
            assert page.features.div_tags > 0
            assert page.features.href_attributes >= page.features.a_tags

    def test_high_complexity_pages_have_more_nodes(self):
        low_max = max(
            page_by_name(n).features.dom_nodes for n in LOW_INTENSITY_PAGES
        )
        high_min = min(
            page_by_name(n).features.dom_nodes for n in HIGH_INTENSITY_PAGES
        )
        assert high_min > low_max * 0.8  # heavy pages are structurally bigger

    def test_markup_is_parseable_real_html(self):
        page = page_by_name("amazon")
        assert page.html.startswith("<!DOCTYPE html>")
        assert page.dom.find_all("body")
        assert page.dom.find_all("img")

    def test_stylesheet_rule_count_matches_profile(self):
        page = page_by_name("espn")
        assert len(page.stylesheet) == page.profile.css_rules


class TestRenderWorkload:
    def test_four_pipeline_stages_in_order(self):
        workload = build_render_workload(page_by_name("msn"))
        assert [phase.name for phase in workload.phases] == [
            "parse",
            "style",
            "layout",
            "paint",
        ]

    def test_instructions_grow_with_page_complexity(self):
        small = build_render_workload(page_by_name("360"))
        large = build_render_workload(page_by_name("aliexpress"))
        assert large.total_instructions > 3 * small.total_instructions

    def test_style_stage_reflects_selector_matching_work(self):
        workload = build_render_workload(page_by_name("bbc"))
        stats = workload.style_stats
        assert stats.candidate_checks == stats.elements * len(
            page_by_name("bbc").stylesheet
        )

    def test_cost_model_scales_stage_budgets(self):
        page = page_by_name("cnn")
        base = build_render_workload(page)
        doubled = build_render_workload(
            page, RenderCostModel(parse_per_node=180_000.0)
        )
        assert doubled.phases[0].instructions > base.phases[0].instructions
        assert doubled.phases[1].instructions == base.phases[1].instructions

    def test_media_weight_drives_paint_memory_character(self):
        lean = build_render_workload(page_by_name("alipay")).phases[3]
        rich = build_render_workload(page_by_name("imgur")).phases[3]
        assert rich.l2_apki > lean.l2_apki
        assert rich.working_set_bytes > lean.working_set_bytes

    def test_cached_lookup_returns_same_workload(self):
        assert render_workload_for("reddit") is render_workload_for("reddit")


class TestStyleMemo:
    def test_style_pass_runs_once_per_page(self, monkeypatch):
        calls = []
        original = pages_module.match_styles

        def counting(root, sheet):
            calls.append(root)
            return original(root, sheet)

        monkeypatch.setattr(pages_module, "match_styles", counting)
        page = build_page(page_by_name("bbc").profile)
        first = browser_tasks(page)
        for _ in range(3):
            assert browser_tasks(page) == first
        assert calls == [page.dom]

    def test_cost_model_override_still_applies(self):
        page = page_by_name("cnn")
        base = browser_tasks(page)
        costly = browser_tasks(
            page, cost_model=RenderCostModel(style_per_check=3_000.0)
        )
        assert costly.main.phases[1].instructions > base.main.phases[1].instructions
        assert costly.main.phases[0] == base.main.phases[0]
        assert browser_tasks(page) == base

    def test_memo_leaves_equality_repr_and_pickling_alone(self):
        page = page_by_name("ebay")
        memo = {"style_stats": page.style_stats, "image_count": page.image_count}
        fresh = build_page(page.profile)
        assert not memo.keys() & vars(fresh).keys()
        assert fresh == page
        assert repr(fresh) == repr(page)
        copy = pickle.loads(pickle.dumps(page))
        assert copy == page
        assert {key: vars(copy)[key] for key in memo} == memo
        assert copy.image_count == len(page.dom.find_all("img"))


class TestBrowserTasks:
    def test_main_gates_helper_does_not(self):
        tasks = browser_tasks(page_by_name("reddit"))
        assert tasks.main.gating is True
        assert tasks.helper.gating is False

    def test_cores_are_distinct(self):
        tasks = browser_tasks(page_by_name("reddit"))
        assert tasks.main.core != tasks.helper.core

    def test_helper_work_is_a_fraction_of_main(self):
        tasks = browser_tasks(page_by_name("reddit"), helper_fraction=0.5)
        main_total = sum(p.instructions for p in tasks.main.phases)
        helper_total = sum(p.instructions for p in tasks.helper.phases)
        assert helper_total == pytest.approx(0.5 * main_total)

    def test_invalid_helper_fraction_rejected(self):
        with pytest.raises(ValueError):
            browser_tasks(page_by_name("reddit"), helper_fraction=0.0)
        with pytest.raises(ValueError):
            browser_tasks(page_by_name("reddit"), helper_fraction=1.5)

    def test_as_list_orders_main_first(self):
        tasks = browser_tasks(page_by_name("reddit"))
        assert tasks.as_list()[0] is tasks.main
