"""The rendering pipeline as a phased compute/memory workload.

Section II-A of the paper abstracts a browser into networking and
rendering, and focuses on rendering (pages are served from memory).
The rendering engine parses the HTML into a DOM tree, resolves CSS
into a render tree, then runs layout and paint.  We model that as four
:class:`~repro.sim.task.WorkPhase` entries whose instruction budgets
are derived from the *parsed document itself*:

* **parse** -- proportional to the markup size (DOM nodes built).
* **style** -- proportional to the selector-matching work measured by
  :func:`repro.browser.css.match_styles` (elements x rules candidate
  checks plus applied declarations), computed once per page and kept
  on it (:attr:`~repro.browser.pages.WebPage.style_stats`).
* **layout** -- proportional to element count, with extra weight for
  ``div`` blocks (box-tree construction and reflow).
* **paint** -- proportional to element count and image count, with the
  page's media weight scaling its memory traffic.

The phases also differ architecturally: parse/style are relatively
core-bound; layout touches more of the heap; paint streams pixel and
image data (highest APKI and working set).  This is what makes
complex, media-heavy pages both slower *and* more sensitive to memory
interference -- the behaviour Figs. 1 and 2 measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.browser.css import StyleMatchStats
from repro.browser.pages import WebPage, page_by_name
from repro.sim.task import WorkPhase

#: Megabyte, for working-set arithmetic.
MIB = 1024.0 * 1024.0


@dataclass(frozen=True)
class RenderCostModel:
    """Instruction-cost coefficients of the pipeline stages.

    The defaults are calibrated so the 18 generated pages load in
    roughly 0.4-4 s alone at 2.2656 GHz, matching the paper's load-time
    spread (Section IV-B).
    """

    parse_per_node: float = 90_000.0
    style_per_check: float = 1_500.0
    style_per_declaration: float = 3_750.0
    layout_per_element: float = 187_500.0
    layout_per_div: float = 375_000.0
    paint_per_element: float = 135_000.0
    paint_per_image: float = 900_000.0


@dataclass(frozen=True)
class RenderPhase:
    """A pipeline stage together with its share of the page workload."""

    phase: WorkPhase

    @property
    def name(self) -> str:
        """Stage name."""
        return self.phase.name


@dataclass(frozen=True)
class RenderWorkload:
    """The full render pipeline of one page.

    Attributes:
        page_name: Page this workload renders.
        phases: The four pipeline stages, in order.
        style_stats: The selector-matching work that sized the style
            stage (kept for inspection and tests).
    """

    page_name: str
    phases: tuple[WorkPhase, ...]
    style_stats: StyleMatchStats

    @property
    def total_instructions(self) -> float:
        """Instructions retired by a full page load."""
        return sum(phase.instructions for phase in self.phases)


def build_render_workload(
    page: WebPage, cost_model: RenderCostModel | None = None
) -> RenderWorkload:
    """Derive the phased workload for a page.

    Args:
        page: A generated page (markup + stylesheet + census).
        cost_model: Stage-cost coefficients (defaults are calibrated).

    Returns:
        The four-stage workload whose instruction budgets reflect the
        page's measured structure.
    """
    costs = cost_model or RenderCostModel()
    stats = page.style_stats
    features = page.features
    media = page.profile.media_weight
    images = page.image_count

    parse_instr = costs.parse_per_node * features.dom_nodes
    style_instr = (
        costs.style_per_check * stats.candidate_checks
        + costs.style_per_declaration * stats.applied_declarations
    )
    layout_instr = (
        costs.layout_per_element * stats.elements
        + costs.layout_per_div * features.div_tags
    )
    paint_instr = (
        costs.paint_per_element * stats.elements
        + costs.paint_per_image * images * media
    )

    phases = (
        WorkPhase(
            name="parse",
            instructions=parse_instr,
            cpi_base=1.1,
            l2_apki=10.0,
            solo_miss_ratio=0.08,
            working_set_bytes=0.75 * MIB,
            mlp=1.2,
            capacitance_f=0.40e-9,
        ),
        WorkPhase(
            name="style",
            instructions=style_instr,
            cpi_base=1.0,
            l2_apki=16.0,
            solo_miss_ratio=0.10,
            working_set_bytes=1.25 * MIB,
            mlp=1.3,
            capacitance_f=0.42e-9,
        ),
        WorkPhase(
            name="layout",
            instructions=layout_instr,
            cpi_base=1.3,
            l2_apki=14.0 + 10.0 * media,
            solo_miss_ratio=0.10 + 0.03 * media,
            working_set_bytes=(1.4 + 0.6 * media) * MIB,
            mlp=1.4,
            capacitance_f=0.45e-9,
        ),
        WorkPhase(
            name="paint",
            instructions=paint_instr,
            cpi_base=1.1,
            l2_apki=min(44.0, 22.0 * media),
            solo_miss_ratio=0.12 + 0.05 * media,
            working_set_bytes=(1.4 + 1.2 * media) * MIB,
            mlp=1.8,
            capacitance_f=0.48e-9,
        ),
    )
    return RenderWorkload(page_name=page.name, phases=phases, style_stats=stats)


@lru_cache(maxsize=None)
def render_workload_for(page_name: str) -> RenderWorkload:
    """Cached default-cost workload for one of the 18 named pages."""
    return build_render_workload(page_by_name(page_name))
