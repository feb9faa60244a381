"""Deterministic generator for the 18 Alexa-like web pages.

The paper loads the 18 most-visited pages from the Alexa top-500 list
(Table III), stored in device memory to eliminate network variance.
We cannot redistribute those pages, so this module *synthesizes* a
named stand-in for each: real HTML with a realistic tag mix (nav bars,
article sections, link lists, image grids, nested ``div`` layout) and
a stylesheet, generated from a per-page seed so every run sees the
identical document.

Per Table III, pages are calibrated so that the twelve "low intensity"
pages load in under 2 s and the six "high intensity" ones in over 2 s
when run alone at the maximum frequency (the classification itself is
*measured*, not asserted -- see
:func:`repro.experiments.suite.classify_pages`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache

from repro.browser.css import StyleMatchStats, Stylesheet, match_styles
from repro.browser.dom import DomNode, PageFeatures, census
from repro.browser.html import parse_html


@dataclass(frozen=True)
class PageProfile:
    """Generation parameters of one synthetic page.

    Attributes:
        name: Page name (the Alexa site it stands in for).
        sections: Number of content sections.
        items_per_section: Blocks (cards/paragraphs) per section.
        links_per_item: ``<a href>`` density inside each block.
        images_per_section: ``<img>`` tags per section.
        nesting_depth: Extra ``div`` wrapper depth around sections.
        css_rules: Number of stylesheet rules.
        styled_fraction: Fraction of elements given a ``class``.
        text_words: Words of text per paragraph.
        media_weight: Relative weight of image/media memory traffic
            during paint (drives the paint phase's cache footprint).
    """

    name: str
    sections: int
    items_per_section: int
    links_per_item: int
    images_per_section: int
    nesting_depth: int
    css_rules: int
    styled_fraction: float
    text_words: int
    media_weight: float


@dataclass(frozen=True)
class WebPage:
    """One generated page: markup, stylesheet and cached census.

    ``dom`` and ``stylesheet`` are mutable types but must not be
    changed once the page is built: :attr:`style_stats` and
    :attr:`image_count` memoize passes over them.
    """

    profile: PageProfile
    html: str
    stylesheet: Stylesheet
    dom: DomNode
    features: PageFeatures

    @property
    def name(self) -> str:
        """Page name."""
        return self.profile.name

    @cached_property
    def style_stats(self) -> StyleMatchStats:
        """The page's selector-matching work, computed on first use.

        Kept in the instance ``__dict__``, so it stays out of equality
        and ``repr`` and travels with a pickled page.
        """
        return match_styles(self.dom, self.stylesheet)

    @cached_property
    def image_count(self) -> int:
        """``<img>`` elements in the page, counted on first use."""
        return len(self.dom.find_all("img"))


_CLASS_POOL = (
    "card", "headline", "hero", "nav-item", "thumb", "story", "meta",
    "byline", "price", "rating", "comment", "sidebar", "footer-link",
    "promo", "banner", "grid-cell",
)

_WORD_POOL = (
    "mobile", "browser", "render", "page", "load", "energy", "frequency",
    "memory", "cache", "system", "user", "news", "video", "photo",
    "market", "review", "update", "report", "score", "deal",
)


def _generate_markup(profile: PageProfile, rng: random.Random) -> str:
    """Emit the HTML text for a profile."""
    out: list[str] = []
    out.append("<!DOCTYPE html>")
    out.append("<html>")
    out.append("<head>")
    out.append(f"<title>{profile.name}</title>")
    out.append('<meta charset="utf-8"/>')
    out.append('<meta name="viewport" content="width=device-width"/>')
    out.append(f'<link rel="stylesheet" href="/{profile.name}/site.css"/>')
    out.append(f"<script>var page = '{profile.name}';</script>")
    out.append("</head>")
    out.append("<body>")
    _emit_nav(out, profile, rng)
    for section_index in range(profile.sections):
        _emit_section(out, profile, rng, section_index)
    _emit_footer(out, profile, rng)
    out.append("</body>")
    out.append("</html>")
    return "\n".join(out)


def _emit_nav(out: list[str], profile: PageProfile, rng: random.Random) -> None:
    out.append('<nav class="top-nav">')
    for index in range(max(4, profile.sections)):
        out.append(
            f'<a class="nav-item" href="/{profile.name}/s{index}">'
            f"{_words(rng, 1)}</a>"
        )
    out.append("</nav>")


def _emit_section(
    out: list[str], profile: PageProfile, rng: random.Random, section_index: int
) -> None:
    for depth in range(profile.nesting_depth):
        out.append(f'<div class="wrap-{depth}">')
    out.append(f'<section id="s{section_index}">')
    out.append(f"<h2>{_words(rng, 3)}</h2>")
    for item_index in range(profile.items_per_section):
        class_attr = ""
        if rng.random() < profile.styled_fraction:
            class_attr = f' class="{rng.choice(_CLASS_POOL)}"'
        out.append(f"<div{class_attr}>")
        out.append(f"<p>{_words(rng, profile.text_words)}</p>")
        for link_index in range(profile.links_per_item):
            out.append(
                f'<a href="/{profile.name}/{section_index}/{item_index}/{link_index}">'
                f"{_words(rng, 2)}</a>"
            )
        out.append("</div>")
    for image_index in range(profile.images_per_section):
        out.append(
            f'<img src="/{profile.name}/img/{section_index}_{image_index}.jpg" '
            f'class="thumb" alt="{_words(rng, 1)}"/>'
        )
    out.append("</section>")
    for _ in range(profile.nesting_depth):
        out.append("</div>")


def _emit_footer(out: list[str], profile: PageProfile, rng: random.Random) -> None:
    out.append('<footer class="footer">')
    for index in range(6):
        out.append(
            f'<a class="footer-link" href="/{profile.name}/f{index}">'
            f"{_words(rng, 1)}</a>"
        )
    out.append("</footer>")


def _words(rng: random.Random, count: int) -> str:
    return " ".join(rng.choice(_WORD_POOL) for _ in range(count))


def _generate_stylesheet(profile: PageProfile, rng: random.Random) -> Stylesheet:
    """Emit a stylesheet with the profile's rule count."""
    selectors: list[str] = []
    tags = ("div", "a", "p", "section", "img", "h2", "nav", "footer")
    for _ in range(profile.css_rules):
        kind = rng.random()
        if kind < 0.4:
            selectors.append(f".{rng.choice(_CLASS_POOL)}")
        elif kind < 0.7:
            selectors.append(rng.choice(tags))
        elif kind < 0.9:
            selectors.append(f"{rng.choice(tags)} .{rng.choice(_CLASS_POOL)}")
        else:
            selectors.append(f"#s{rng.randrange(max(1, profile.sections))}")
    return Stylesheet.from_selectors(selectors, declarations=rng.randint(2, 6))


def build_page(profile: PageProfile) -> WebPage:
    """Generate a page from its profile (deterministic per name)."""
    rng = random.Random(f"dora-page::{profile.name}")
    html = _generate_markup(profile, rng)
    sheet = _generate_stylesheet(profile, rng)
    dom = parse_html(html)
    return WebPage(
        profile=profile,
        html=html,
        stylesheet=sheet,
        dom=dom,
        features=census(dom),
    )


#: Profiles for the 18 pages.  ``sections x items`` scales the DOM size;
#: the low-complexity twelve are listed first, then the heavy six.
_PROFILES: tuple[PageProfile, ...] = (
    PageProfile("360", 5, 8, 2, 3, 2, 40, 0.5, 6, 0.6),
    PageProfile("twitter", 6, 9, 2, 4, 2, 48, 0.6, 5, 0.8),
    PageProfile("instagram", 6, 9, 1, 8, 2, 44, 0.6, 3, 1.9),
    PageProfile("alipay", 7, 9, 2, 3, 2, 52, 0.5, 5, 0.5),
    PageProfile("reddit", 17, 12, 3, 4, 2, 56, 0.6, 8, 0.8),
    PageProfile("amazon", 8, 11, 3, 6, 3, 64, 0.7, 6, 1.0),
    PageProfile("youtube", 9, 10, 2, 8, 2, 60, 0.6, 4, 1.8),
    PageProfile("ebay", 9, 12, 3, 6, 3, 64, 0.7, 6, 0.9),
    PageProfile("msn", 11, 12, 3, 6, 3, 72, 0.7, 8, 0.9),
    PageProfile("bbc", 12, 13, 3, 5, 3, 80, 0.7, 10, 0.8),
    PageProfile("cnn", 13, 13, 3, 6, 3, 84, 0.7, 10, 0.9),
    PageProfile("alibaba", 14, 14, 3, 7, 3, 88, 0.7, 7, 1.0),
    PageProfile("imgur", 33, 16, 2, 10, 3, 96, 0.7, 4, 1.9),
    PageProfile("firefox", 33, 17, 3, 6, 4, 110, 0.8, 9, 0.9),
    PageProfile("hao123", 23, 18, 5, 8, 4, 120, 0.8, 6, 1.8),
    PageProfile("espn", 27, 19, 4, 10, 4, 130, 0.8, 9, 0.7),
    PageProfile("imdb", 22, 20, 4, 11, 4, 140, 0.8, 9, 1.0),
    PageProfile("aliexpress", 28, 21, 4, 12, 4, 150, 0.8, 8, 1.3),
)

#: Names of the paper's low/high load-time classes (Table III).
LOW_INTENSITY_PAGES: tuple[str, ...] = (
    "amazon", "twitter", "youtube", "360", "msn", "bbc", "cnn", "reddit",
    "alibaba", "ebay", "alipay", "instagram",
)
HIGH_INTENSITY_PAGES: tuple[str, ...] = (
    "imdb", "espn", "hao123", "imgur", "aliexpress", "firefox",
)


@lru_cache(maxsize=None)
def alexa_pages() -> tuple[WebPage, ...]:
    """All 18 generated pages (cached; generation is deterministic)."""
    return tuple(build_page(profile) for profile in _PROFILES)


@lru_cache(maxsize=None)
def page_by_name(name: str) -> WebPage:
    """Look up one generated page by name.

    Raises:
        KeyError: If the name is not one of the 18 pages.
    """
    for page in alexa_pages():
        if page.name == name:
            return page
    raise KeyError(f"unknown page: {name!r}")


def page_names() -> tuple[str, ...]:
    """All 18 page names, low-complexity class first."""
    return tuple(profile.name for profile in _PROFILES)
