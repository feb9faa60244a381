"""CSS selector matching tests."""

from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.browser.css import (
    Selector,
    SimpleSelector,
    StyleMatchStats,
    StyleRule,
    Stylesheet,
    match_styles,
    parse_selector,
)
from repro.browser.dom import DomNode
from repro.browser.html import parse_html
from repro.browser.pages import alexa_pages


class TestSelectorParsing:
    def test_tag_selector(self):
        selector = parse_selector("div")
        assert selector.key.tag == "div"
        assert selector.key.classes == frozenset()

    def test_class_selector(self):
        selector = parse_selector(".card")
        assert selector.key.tag is None
        assert selector.key.classes == frozenset({"card"})

    def test_id_selector(self):
        selector = parse_selector("#main")
        assert selector.key.element_id == "main"

    def test_compound_selector(self):
        selector = parse_selector("div.card#hero")
        assert selector.key.tag == "div"
        assert selector.key.classes == frozenset({"card"})
        assert selector.key.element_id == "hero"

    def test_descendant_chain(self):
        selector = parse_selector("nav .item a")
        assert len(selector.parts) == 3
        assert selector.parts[0].tag == "nav"
        assert selector.key.tag == "a"

    def test_tag_is_lowercased(self):
        assert parse_selector("DIV").key.tag == "div"

    def test_empty_selector_rejected(self):
        with pytest.raises(ValueError):
            parse_selector("   ")


class TestSimpleMatching:
    def _node(self, markup):
        return parse_html(markup).children[0]

    def test_tag_match(self):
        assert SimpleSelector(tag="div").matches(self._node("<div></div>"))
        assert not SimpleSelector(tag="div").matches(self._node("<p></p>"))

    def test_class_match_requires_all_classes(self):
        node = self._node('<div class="a b"></div>')
        assert SimpleSelector(classes=frozenset({"a"})).matches(node)
        assert SimpleSelector(classes=frozenset({"a", "b"})).matches(node)
        assert not SimpleSelector(classes=frozenset({"a", "c"})).matches(node)

    def test_id_match(self):
        node = self._node('<div id="hero"></div>')
        assert SimpleSelector(element_id="hero").matches(node)
        assert not SimpleSelector(element_id="other").matches(node)

    def test_text_nodes_never_match(self):
        text = parse_html("<p>x</p>").children[0].children[0]
        assert not SimpleSelector().matches(text)


class TestDescendantMatching:
    def test_requires_ancestors_in_order(self):
        root = parse_html('<nav><div class="item"><a>x</a></div></nav>')
        nav = root.children[0]
        div = nav.children[0]
        anchor = div.children[0]
        selector = parse_selector("nav .item a")
        assert selector.matches(anchor, [nav, div])
        assert not selector.matches(anchor, [div])  # nav missing

    def test_non_adjacent_ancestors_allowed(self):
        root = parse_html("<nav><section><a>x</a></section></nav>")
        nav = root.children[0]
        section = nav.children[0]
        anchor = section.children[0]
        assert parse_selector("nav a").matches(anchor, [nav, section])


class TestMatchStyles:
    def test_candidate_checks_are_elements_times_rules(self):
        markup = "<div><p>x</p><p>y</p></div>"
        sheet = Stylesheet.from_selectors(["p", ".missing", "div"])
        stats = match_styles(parse_html(markup), sheet)
        assert stats.elements == 3
        assert stats.candidate_checks == 9

    def test_match_and_declaration_counts(self):
        markup = "<div><p>x</p><p>y</p></div>"
        sheet = Stylesheet.from_selectors(["p"], declarations=4)
        stats = match_styles(parse_html(markup), sheet)
        assert stats.matches == 2
        assert stats.applied_declarations == 8

    def test_descendant_rules_match_through_the_tree(self):
        markup = '<nav><a class="x">1</a></nav><a class="x">2</a>'
        sheet = Stylesheet.from_selectors(["nav .x"])
        stats = match_styles(parse_html(markup), sheet)
        assert stats.matches == 1

    def test_empty_stylesheet(self):
        stats = match_styles(parse_html("<div></div>"), Stylesheet())
        assert stats.candidate_checks == 0
        assert stats.matches == 0

    def test_stylesheet_len(self):
        assert len(Stylesheet.from_selectors(["a", "p"])) == 2


def naive_match_styles(root: DomNode, sheet: Stylesheet) -> StyleMatchStats:
    """Reference pass: every element against every rule."""
    elements = checks = matches = applied = 0

    def visit(node: DomNode, ancestors: list[DomNode]) -> None:
        nonlocal elements, checks, matches, applied
        if not node.is_text and not node.tag.startswith("#"):
            elements += 1
            for rule in sheet.rules:
                checks += 1
                if rule.selector.matches(node, ancestors):
                    matches += 1
                    applied += rule.declarations
            ancestors = ancestors + [node]
        for child in node.children:
            visit(child, ancestors)

    visit(root, [])
    return StyleMatchStats(elements, checks, matches, applied)


_TAGS = ("div", "a", "p", "DIV", "#text", "#comment")
_NAMES = ("x", "y", "z")
#: ``id=""`` is a real attribute value, distinct from no id.
_IDS = ("", "x", "y")

_simple = st.builds(
    SimpleSelector,
    tag=st.none() | st.sampled_from(_TAGS),
    classes=st.frozensets(st.sampled_from(_NAMES), max_size=3),
    element_id=st.none() | st.sampled_from(_IDS),
)


@st.composite
def _selectors(draw) -> Selector:
    if draw(st.booleans()):
        # A descendant chain that repeats one simple selector.
        return Selector(parts=(draw(_simple),) * draw(st.integers(1, 4)))
    return Selector(parts=tuple(draw(st.lists(_simple, min_size=1, max_size=3))))


_sheets = st.lists(
    st.builds(StyleRule, selector=_selectors(), declarations=st.integers(0, 5)),
    max_size=12,
).map(lambda rules: Stylesheet(rules=rules))


def _node(tag, element_id, classes, children) -> DomNode:
    attributes = {}
    if element_id is not None:
        attributes["id"] = element_id
    if classes is not None:
        attributes["class"] = " ".join(classes)
    return DomNode(tag=tag, attributes=attributes, children=children)


def _nodes(children):
    return st.builds(
        _node,
        tag=st.sampled_from(_TAGS),
        element_id=st.none() | st.sampled_from(_IDS),
        classes=st.none() | st.lists(st.sampled_from(_NAMES), max_size=3),
        children=children,
    )


_doms = st.recursive(
    _nodes(st.just([])),
    lambda inner: _nodes(st.lists(inner, max_size=4)),
    max_leaves=30,
)

#: ``(elements, candidate_checks, matches, applied_declarations)`` of
#: the 18 generated pages, as the naive elements x rules pass counted
#: them.
GOLDEN_STATS = {
    "360": (216, 8640, 643, 1929),
    "twitter": (286, 13728, 484, 2420),
    "instagram": (256, 11264, 515, 3090),
    "alipay": (324, 16848, 689, 4134),
    "reddit": (1189, 66584, 4147, 12441),
    "amazon": (552, 35328, 1504, 4512),
    "youtube": (493, 29580, 1320, 7920),
    "ebay": (664, 42496, 2733, 5466),
    "msn": (808, 58176, 2826, 11304),
    "bbc": (928, 74240, 3269, 16345),
    "cnn": (1017, 85428, 5294, 31764),
    "alibaba": (1178, 103664, 4673, 9346),
    "imgur": (2656, 254976, 15085, 75425),
    "firefox": (3250, 357500, 18472, 110832),
    "hao123": (3259, 391080, 13676, 27352),
    "espn": (3553, 461890, 20837, 125022),
    "imdb": (3052, 427280, 11848, 47392),
    "aliexpress": (4076, 611400, 20141, 80564),
}


class TestIndexedMatcher:
    @settings(max_examples=300, deadline=None)
    @given(root=_doms, sheet=_sheets)
    def test_equals_naive_pass(self, root, sheet):
        assert match_styles(root, sheet) == naive_match_styles(root, sheet)

    def test_generated_pages_match_golden_stats(self):
        stats = {
            page.name: astuple(match_styles(page.dom, page.stylesheet))
            for page in alexa_pages()
        }
        assert stats == GOLDEN_STATS
